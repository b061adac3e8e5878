#include "bzip/huffman.hpp"

#include <algorithm>
#include <queue>

namespace tle::bzip {

namespace {

struct TreeNode {
  std::uint64_t freq;
  int left = -1;   // node indices; -1 for leaves
  int right = -1;
  std::uint16_t symbol = 0;
};

/// Depth of each leaf of the Huffman tree for `freqs`.
std::vector<std::uint8_t> tree_depths(const std::vector<std::uint64_t>& freqs) {
  const std::size_t n = freqs.size();
  std::vector<TreeNode> nodes;
  nodes.reserve(2 * n);
  using Entry = std::pair<std::uint64_t, int>;  // (freq, node index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t s = 0; s < n; ++s) {
    if (freqs[s] == 0) continue;
    nodes.push_back(TreeNode{freqs[s], -1, -1, static_cast<std::uint16_t>(s)});
    heap.emplace(freqs[s], static_cast<int>(nodes.size()) - 1);
  }
  std::vector<std::uint8_t> depths(n, 0);
  if (heap.empty()) return depths;
  if (heap.size() == 1) {
    depths[nodes[heap.top().second].symbol] = 1;
    return depths;
  }
  while (heap.size() > 1) {
    const auto [fa, a] = heap.top();
    heap.pop();
    const auto [fb, b] = heap.top();
    heap.pop();
    nodes.push_back(TreeNode{fa + fb, a, b, 0});
    heap.emplace(fa + fb, static_cast<int>(nodes.size()) - 1);
  }
  // Iterative depth assignment from the root.
  std::vector<std::pair<int, std::uint8_t>> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    const auto [i, d] = stack.back();
    stack.pop_back();
    const TreeNode& node = nodes[static_cast<std::size_t>(i)];
    if (node.left < 0) {
      depths[node.symbol] = d;
      continue;
    }
    stack.push_back({node.left, static_cast<std::uint8_t>(d + 1)});
    stack.push_back({node.right, static_cast<std::uint8_t>(d + 1)});
  }
  return depths;
}

}  // namespace

std::vector<std::uint8_t> huffman_code_lengths(
    const std::vector<std::uint64_t>& freqs) {
  // bzip2's depth-limiting strategy: rebuild with flattened frequencies
  // until the deepest leaf fits kMaxCodeLen.
  std::vector<std::uint64_t> f = freqs;
  for (;;) {
    std::vector<std::uint8_t> depths = tree_depths(f);
    const std::uint8_t deepest =
        depths.empty() ? 0 : *std::max_element(depths.begin(), depths.end());
    if (deepest <= kMaxCodeLen) return depths;
    for (auto& x : f)
      if (x) x = x / 2 + 1;
  }
}

std::vector<std::uint32_t> canonical_codes(
    const std::vector<std::uint8_t>& lengths) {
  std::uint32_t count[kMaxCodeLen + 2] = {};
  for (auto l : lengths) ++count[l];
  count[0] = 0;
  std::uint32_t next[kMaxCodeLen + 2] = {};
  std::uint32_t code = 0;
  for (unsigned l = 1; l <= kMaxCodeLen; ++l) {
    code = (code + count[l - 1]) << 1;
    next[l] = code;
  }
  std::vector<std::uint32_t> codes(lengths.size(), 0);
  for (std::size_t s = 0; s < lengths.size(); ++s)
    if (lengths[s]) codes[s] = next[lengths[s]]++;
  return codes;
}

bool HuffmanDecoder::init(const std::vector<std::uint8_t>& lengths) {
  if (lengths.size() > (1u << (16 - kLenBits))) return false;  // fast_ packing
  std::fill(std::begin(count_), std::end(count_), 0u);
  for (auto l : lengths) {
    if (l > kMaxCodeLen) return false;
    ++count_[l];
  }
  count_[0] = 0;
  // Kraft check (allow the degenerate single-symbol code).
  std::uint64_t kraft = 0;
  for (unsigned l = 1; l <= kMaxCodeLen; ++l)
    kraft += static_cast<std::uint64_t>(count_[l]) << (kMaxCodeLen - l);
  if (kraft > (1ULL << kMaxCodeLen)) return false;

  std::uint32_t code = 0, index = 0;
  for (unsigned l = 1; l <= kMaxCodeLen; ++l) {
    code = (code + count_[l - 1]) << 1;
    first_code_[l] = code;
    offset_[l] = index;
    index += count_[l];
  }
  sorted_symbols_.clear();
  sorted_symbols_.resize(index);
  std::uint32_t pos[kMaxCodeLen + 2];
  std::copy(std::begin(offset_), std::end(offset_), std::begin(pos));
  for (std::size_t s = 0; s < lengths.size(); ++s)
    if (lengths[s])
      sorted_symbols_[pos[lengths[s]]++] = static_cast<std::uint16_t>(s);

  // Every kFastBits-bit window that starts with a code of length l <=
  // kFastBits maps to that code's symbol. The Kraft check keeps each code's
  // span inside the table.
  std::fill(std::begin(fast_), std::end(fast_), std::uint16_t{0});
  for (unsigned l = 1; l <= kFastBits; ++l) {
    const unsigned shift = kFastBits - l;
    for (std::uint32_t k = 0; k < count_[l]; ++k) {
      const std::uint32_t sym = sorted_symbols_[offset_[l] + k];
      const auto entry = static_cast<std::uint16_t>(sym << kLenBits | l);
      const std::uint32_t first = (first_code_[l] + k) << shift;
      std::fill(fast_ + first, fast_ + first + (1u << shift), entry);
    }
  }
  return !sorted_symbols_.empty();
}

int HuffmanDecoder::decode_long(std::uint32_t bits, BitReader& in) const {
  for (unsigned l = kFastBits + 1; l <= kMaxCodeLen; ++l) {
    const std::uint32_t code = bits >> (kMaxCodeLen - l);
    if (count_[l] && code - first_code_[l] < count_[l])
      return in.consume(l) ? sorted_symbols_[offset_[l] + (code - first_code_[l])]
                           : -1;
  }
  return -1;
}

}  // namespace tle::bzip

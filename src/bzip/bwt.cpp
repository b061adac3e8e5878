#include "bzip/bwt.hpp"

#include <algorithm>

namespace tle::bzip {

BwtResult bwt_forward(const std::uint8_t* data, std::size_t n) {
  BwtResult out;
  if (n == 0) return out;
  if (n == 1) {
    out.last_column.assign(1, data[0]);
    out.primary_index = 0;
    return out;
  }

  // rank[i]: equivalence class of rotation i under the current prefix length;
  // idx: the rotations sorted by that prefix; count[c]: where class c starts
  // in idx.
  std::vector<std::uint32_t> rank(n), idx(n), tmp(n), next(n),
      count(std::max<std::size_t>(n, 256));
  for (std::size_t i = 0; i < n; ++i) ++count[rank[i] = data[i]];
  for (std::size_t c = 1; c < 256; ++c) count[c] += count[c - 1];
  for (std::size_t i = n; i-- > 0;)
    idx[--count[rank[i]]] = static_cast<std::uint32_t>(i);

  std::uint32_t classes = 0;
  for (std::size_t k = 1;; k <<= 1) {
    // idx is sorted by rank, so stepping each entry back by k lists the
    // rotations in order of rank[i + k]; one stable counting pass on rank[i]
    // then sorts by the pair (Manber–Myers). k < n, so no division is needed.
    for (std::size_t t = 0; t < n; ++t) {
      const std::uint32_t s = idx[t];
      const auto j = static_cast<std::uint32_t>(s >= k ? s - k : s + (n - k));
      tmp[count[rank[j]]++] = j;
    }
    idx.swap(tmp);

    // Re-rank by the pair (rank[i], rank[i + k]), noting where classes start.
    next[idx[0]] = 0;
    count[0] = 0;
    std::uint32_t r = 0;
    for (std::size_t i = 1; i < n; ++i) {
      const std::uint32_t a = idx[i], b = idx[i - 1];
      std::size_t ak = a + k, bk = b + k;
      if (ak >= n) ak -= n;
      if (bk >= n) bk -= n;
      if (rank[a] != rank[b] || rank[ak] != rank[bk])
        count[++r] = static_cast<std::uint32_t>(i);
      next[a] = r;
    }
    rank.swap(next);
    classes = r + 1;
    if (classes == n || 2 * k >= n) break;  // ranks cover whole rotations
  }

  // Equal ranks now mean identical rotations (a periodic input). Order each
  // such run by index, as a stable sort of the rotations would.
  for (std::size_t i = 0, j = 0; classes < n && i < n; i = j) {
    j = i + 1;
    while (j < n && rank[idx[j]] == rank[idx[i]]) ++j;
    std::sort(idx.begin() + static_cast<std::ptrdiff_t>(i),
              idx.begin() + static_cast<std::ptrdiff_t>(j));
  }

  out.last_column.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t start = idx[j];
    out.last_column[j] = data[start == 0 ? n - 1 : start - 1];
    if (start == 0) out.primary_index = static_cast<std::uint32_t>(j);
  }
  return out;
}

std::vector<std::uint8_t> bwt_inverse(const std::uint8_t* last_column,
                                      std::size_t n,
                                      std::uint32_t primary_index) {
  std::vector<std::uint8_t> out;
  if (n == 0) return out;
  // base[c]: first row of the sorted (first) column holding byte c.
  std::uint32_t counts[256] = {};
  for (std::size_t j = 0; j < n; ++j) ++counts[last_column[j]];
  std::uint32_t base[256];
  std::uint32_t sum = 0;
  for (int c = 0; c < 256; ++c) {
    base[c] = sum;
    sum += counts[c];
  }
  // tt[f] = row of the last column that maps to first-column position f.
  std::vector<std::uint32_t> tt(n);
  for (std::size_t j = 0; j < n; ++j) tt[base[last_column[j]]++] = static_cast<std::uint32_t>(j);

  out.resize(n);
  std::uint32_t p = tt[primary_index];
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = last_column[p];
    p = tt[p];
  }
  return out;
}

}  // namespace tle::bzip

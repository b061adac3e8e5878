// Canonical Huffman coding for the ZRLE symbol alphabet.
#pragma once

#include <cstdint>
#include <vector>

#include "bzip/bitio.hpp"

namespace tle::bzip {

inline constexpr unsigned kMaxCodeLen = 20;

/// Compute depth-limited code lengths for `freqs` (zero-frequency symbols
/// get length 0). At least one symbol must have nonzero frequency.
std::vector<std::uint8_t> huffman_code_lengths(
    const std::vector<std::uint64_t>& freqs);

/// Canonical code assignment from lengths (codes[i] valid iff lengths[i]>0).
std::vector<std::uint32_t> canonical_codes(
    const std::vector<std::uint8_t>& lengths);

/// Streaming canonical decoder. Codes of up to kFastBits bits resolve with
/// one lookup in a table indexed by the next kFastBits bits; longer codes
/// fall back to the canonical walk over lengths kFastBits+1..kMaxCodeLen.
class HuffmanDecoder {
 public:
  static constexpr unsigned kFastBits = 10;

  /// Build from code lengths. Returns false if the lengths are not a valid
  /// (complete or over-complete-free) prefix code.
  bool init(const std::vector<std::uint8_t>& lengths);

  /// Decode one symbol; -1 on error/underrun.
  int decode(BitReader& in) const {
    const std::uint32_t bits = in.peek(kMaxCodeLen);
    const std::uint16_t e = fast_[bits >> (kMaxCodeLen - kFastBits)];
    if (e == 0) return decode_long(bits, in);
    return in.consume(e & kLenMask) ? e >> kLenBits : -1;
  }

 private:
  // fast_ entry: (symbol << kLenBits) | code length, or 0 when the next
  // kFastBits bits start no code that short.
  static constexpr unsigned kLenBits = 4;
  static constexpr std::uint16_t kLenMask = (1u << kLenBits) - 1;

  /// The canonical walk for codes longer than kFastBits; `bits` holds the
  /// next kMaxCodeLen bits.
  int decode_long(std::uint32_t bits, BitReader& in) const;

  std::uint16_t fast_[1u << kFastBits] = {};
  // first_code_[l]: canonical first code of length l;
  // offset_[l]: index into sorted_symbols_ of that first code.
  std::uint32_t first_code_[kMaxCodeLen + 2] = {};
  std::uint32_t count_[kMaxCodeLen + 2] = {};
  std::uint32_t offset_[kMaxCodeLen + 2] = {};
  std::vector<std::uint16_t> sorted_symbols_;
};

}  // namespace tle::bzip

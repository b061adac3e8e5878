// Single-block compress/decompress: the full bzip2-style pipeline
//   RLE1 -> BWT -> MTF -> ZRLE -> canonical Huffman
// with a CRC-32 of the original data for integrity checking.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tle::bzip {

/// Largest block the codec takes. The decoder packs each inverse-BWT row
/// into 24 bits, and RLE1 can grow a block by a quarter (every 4-run gains a
/// count byte), so ⌈5·n/4⌉ must stay below 2^24.
inline constexpr std::size_t kMaxBlockBytes = std::size_t{8} << 20;

/// Compress one block of 0..kMaxBlockBytes bytes; a larger n throws
/// std::length_error.
std::vector<std::uint8_t> compress_block(const std::uint8_t* data,
                                         std::size_t n);

inline std::vector<std::uint8_t> compress_block(
    const std::vector<std::uint8_t>& data) {
  return compress_block(data.data(), data.size());
}

struct DecodeResult {
  bool ok = false;
  std::string error;  ///< set when !ok
  std::vector<std::uint8_t> data;
};

/// Decompress one block produced by compress_block. Detects truncation,
/// malformed streams, and CRC mismatches; never throws on bad input. The
/// header's sizes are checked before anything is allocated from them.
DecodeResult decompress_block(const std::uint8_t* data, std::size_t n);

inline DecodeResult decompress_block(const std::vector<std::uint8_t>& data) {
  return decompress_block(data.data(), data.size());
}

}  // namespace tle::bzip

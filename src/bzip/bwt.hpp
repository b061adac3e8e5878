// Burrows–Wheeler transform over full cyclic rotations (as in bzip2).
#pragma once

#include <cstdint>
#include <vector>

namespace tle::bzip {

struct BwtResult {
  std::vector<std::uint8_t> last_column;
  std::uint32_t primary_index = 0;  ///< row of the original string
};

/// Forward transform. O(n log n): prefix doubling with counting sort.
BwtResult bwt_forward(const std::uint8_t* data, std::size_t n);

/// Inverse transform, through the packed table of bwt_link(). n must be
/// below kMaxBwtRows.
std::vector<std::uint8_t> bwt_inverse(const std::uint8_t* last_column,
                                      std::size_t n,
                                      std::uint32_t primary_index);

/// Rows the packed inverse table can address (24 bits of each entry).
inline constexpr std::size_t kMaxBwtRows = std::size_t{1} << 24;

/// Packs the inverse-transform table in place. On entry tt[i] is last-column
/// byte i (upper bits zero) and counts[c] how many of the n bytes equal c. On
/// exit the upper 24 bits of each entry hold a row link, so that starting at
/// p = tt[primary_index] >> 8 and repeating {e = tt[p]; emit e & 0xFF;
/// p = e >> 8;} n times yields the original text, one load per byte.
void bwt_link(std::uint32_t* tt, std::size_t n, const std::uint32_t* counts);

}  // namespace tle::bzip

// CRC-32 (IEEE 802.3 polynomial), slicing-by-8: eight bytes per step through
// eight derived tables.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace tle::bzip {

namespace detail {
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the classic byte table; tables[k][i] is the CRC of byte i
// followed by k zero bytes.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  return t;
}
inline constexpr CrcTables kCrcTables = make_crc_tables();

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace detail

/// One-shot CRC of a buffer.
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t n,
                           std::uint32_t seed = 0) {
  const auto& t = detail::kCrcTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    const std::uint32_t lo = detail::load_le32(data) ^ c;
    const std::uint32_t hi = detail::load_le32(data + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) c = t[0][(c ^ *data) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace tle::bzip

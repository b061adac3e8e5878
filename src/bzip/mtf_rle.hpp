// Move-to-front coding and the two run-length layers of the bzip2 pipeline:
//   RLE1  — pre-BWT byte runs (4 equal bytes + count byte),
//   ZRLE  — post-MTF zero runs in bijective base-2 (RUNA/RUNB symbols).
#pragma once

#include <cstdint>
#include <vector>

namespace tle::bzip {

// --- RLE1 -------------------------------------------------------------------

/// Runs of >=4 equal bytes become the 4 bytes plus a count byte (0..250
/// additional repeats), exactly the bzip2 scheme.
std::vector<std::uint8_t> rle1_encode(const std::uint8_t* data, std::size_t n);
std::vector<std::uint8_t> rle1_decode(const std::uint8_t* data, std::size_t n);

// --- MTF --------------------------------------------------------------------

/// Move-to-front transform (alphabet 0..255).
std::vector<std::uint8_t> mtf_encode(const std::uint8_t* data, std::size_t n);
std::vector<std::uint8_t> mtf_decode(const std::uint8_t* data, std::size_t n);

// --- ZRLE symbol stream -------------------------------------------------------

/// Post-MTF symbol alphabet:
///   0 RUNA, 1 RUNB                (zero-run digits, bijective base 2)
///   2..256                        MTF values 1..255 (shifted by one)
///   257 EOB                       end of block
inline constexpr std::uint16_t kRunA = 0;
inline constexpr std::uint16_t kRunB = 1;
inline constexpr std::uint16_t kEob = 257;
inline constexpr std::size_t kSymbolAlphabet = 258;

/// MTF bytes -> ZRLE symbol stream (terminated by EOB).
std::vector<std::uint16_t> zrle_encode(const std::uint8_t* mtf, std::size_t n);

/// ZRLE symbols (must end in EOB) -> MTF bytes appended to `out`. Returns
/// false on a malformed stream or one that would grow `out` past `limit`
/// bytes: RUNA/RUNB digits double a run's weight each, so a few dozen of
/// them declare an astronomically long run.
bool zrle_decode(const std::uint16_t* symbols, std::size_t n,
                 std::size_t limit, std::vector<std::uint8_t>* out);

}  // namespace tle::bzip

#include "videnc/transform.hpp"

#include <algorithm>
#include <cmath>

namespace tle::videnc {

namespace {

constexpr int kShift = 13;  // fixed-point scale of the cosine matrix

/// Fixed-point orthonormal DCT-II matrix, built once.
struct CosTable {
  std::int32_t c[kBlock][kBlock];
  CosTable() {
    for (int u = 0; u < kBlock; ++u) {
      const double a = u == 0 ? std::sqrt(1.0 / kBlock) : std::sqrt(2.0 / kBlock);
      for (int y = 0; y < kBlock; ++y)
        c[u][y] = static_cast<std::int32_t>(std::lround(
            a * std::cos((2 * y + 1) * u * M_PI / (2 * kBlock)) * (1 << kShift)));
    }
  }
};
const CosTable kCos;

std::int32_t descale(std::int64_t v) {
  return static_cast<std::int32_t>((v + (1 << (kShift - 1))) >> kShift);
}

}  // namespace

// --- Exp-Golomb ---------------------------------------------------------------

std::size_t put_ue(bzip::BitWriter& bw, std::uint32_t v) {
  const std::uint32_t x = v + 1;
  int bits = 0;
  while ((2u << bits) <= x) ++bits;  // bits = floor(log2(x))
  bw.put(0, static_cast<unsigned>(bits));
  bw.put(x, static_cast<unsigned>(bits) + 1);
  return static_cast<std::size_t>(2 * bits + 1);
}

bool get_ue(bzip::BitReader& br, std::uint32_t* v) {
  int zeros = 0;
  for (;;) {
    std::uint64_t b;
    if (!br.get(1, &b)) return false;
    if (b) break;
    if (++zeros > 31) return false;
  }
  std::uint64_t rest = 0;
  if (zeros > 0 && !br.get(static_cast<unsigned>(zeros), &rest)) return false;
  *v = static_cast<std::uint32_t>(((1ULL << zeros) | rest) - 1);
  return true;
}

std::size_t put_se(bzip::BitWriter& bw, std::int32_t v) {
  // Zigzag map: 0 -> 0, 1 -> 1, -1 -> 2, 2 -> 3, -2 -> 4, ...
  const std::uint32_t u =
      v > 0 ? 2u * static_cast<std::uint32_t>(v) - 1
            : 2u * static_cast<std::uint32_t>(-v);
  return put_ue(bw, u);
}

bool get_se(bzip::BitReader& br, std::int32_t* v) {
  std::uint32_t u;
  if (!get_ue(br, &u)) return false;
  *v = (u & 1) ? static_cast<std::int32_t>((u + 1) / 2)
               : -static_cast<std::int32_t>(u / 2);
  return true;
}

void fdct8x8(const std::int16_t in[kBlockSize], std::int32_t out[kBlockSize]) {
  std::int32_t tmp[kBlockSize];
  for (int u = 0; u < kBlock; ++u)
    for (int x = 0; x < kBlock; ++x) {
      std::int64_t s = 0;
      for (int y = 0; y < kBlock; ++y)
        s += static_cast<std::int64_t>(kCos.c[u][y]) * in[y * kBlock + x];
      tmp[u * kBlock + x] = descale(s);
    }
  for (int u = 0; u < kBlock; ++u)
    for (int v = 0; v < kBlock; ++v) {
      std::int64_t s = 0;
      for (int x = 0; x < kBlock; ++x)
        s += static_cast<std::int64_t>(kCos.c[v][x]) * tmp[u * kBlock + x];
      out[u * kBlock + v] = descale(s);
    }
}

void idct8x8(const std::int32_t in[kBlockSize], std::int16_t out[kBlockSize]) {
  std::int32_t tmp[kBlockSize];
  for (int y = 0; y < kBlock; ++y)
    for (int v = 0; v < kBlock; ++v) {
      std::int64_t s = 0;
      for (int u = 0; u < kBlock; ++u)
        s += static_cast<std::int64_t>(kCos.c[u][y]) * in[u * kBlock + v];
      tmp[y * kBlock + v] = descale(s);
    }
  for (int y = 0; y < kBlock; ++y)
    for (int x = 0; x < kBlock; ++x) {
      std::int64_t s = 0;
      for (int v = 0; v < kBlock; ++v)
        s += static_cast<std::int64_t>(kCos.c[v][x]) * tmp[y * kBlock + v];
      const std::int32_t r = descale(s);
      out[y * kBlock + x] = static_cast<std::int16_t>(
          std::clamp(r, -32768, 32767));
    }
}

std::int32_t quant_step(int qp) {
  static const int base[6] = {10, 11, 13, 14, 16, 18};
  qp = std::clamp(qp, 0, 51);
  return std::max(1, (base[qp % 6] << (qp / 6)) / 4);
}

void quantize(std::int32_t coeffs[kBlockSize], std::int32_t step) {
  for (int i = 0; i < kBlockSize; ++i) {
    const std::int32_t c = coeffs[i];
    const std::int32_t q = (std::abs(c) + step / 2) / step;
    coeffs[i] = c < 0 ? -q : q;
  }
}

void dequantize(std::int32_t coeffs[kBlockSize], std::int32_t step) {
  for (int i = 0; i < kBlockSize; ++i) coeffs[i] *= step;
}

const std::uint8_t kZigzag[kBlockSize] = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

std::size_t entropy_encode_block(const std::int32_t coeffs[kBlockSize],
                                 bzip::BitWriter& bw) {
  std::size_t bits = 0;
  std::uint32_t run = 0;
  for (int i = 0; i < kBlockSize; ++i) {
    const std::int32_t c = coeffs[kZigzag[i]];
    if (c == 0) {
      ++run;
      continue;
    }
    bits += put_ue(bw, run);
    const std::uint32_t mag = static_cast<std::uint32_t>(std::abs(c)) - 1;
    bits += put_ue(bw, mag);
    bw.put(c < 0 ? 1 : 0, 1);
    bits += 1;
    run = 0;
  }
  bits += put_ue(bw, kBlockSize);  // EOB sentinel (legit runs are <= 63)
  return bits;
}

bool entropy_decode_block(bzip::BitReader& br, std::int32_t coeffs[kBlockSize]) {
  std::fill(coeffs, coeffs + kBlockSize, 0);
  int pos = 0;
  for (;;) {
    std::uint32_t run;
    if (!get_ue(br, &run)) return false;
    if (run == kBlockSize) return true;  // EOB
    pos += static_cast<int>(run);
    if (pos >= kBlockSize) return false;
    std::uint32_t mag;
    if (!get_ue(br, &mag)) return false;
    std::uint64_t sign;
    if (!br.get(1, &sign)) return false;
    const std::int32_t level = static_cast<std::int32_t>(mag) + 1;
    coeffs[kZigzag[pos]] = sign ? -level : level;
    ++pos;
  }
}

}  // namespace tle::videnc

#include "bzip/block_codec.hpp"

#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "bzip/bitio.hpp"
#include "bzip/bwt.hpp"
#include "bzip/crc32.hpp"
#include "bzip/huffman.hpp"
#include "bzip/mtf_rle.hpp"

namespace tle::bzip {

namespace {

constexpr std::uint32_t kMagic = 0x545A4231;  // "TZB1"
constexpr unsigned kLenBits = 5;              // code length field (0..20)

void put_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  out->push_back(static_cast<std::uint8_t>(v));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
  out->push_back(static_cast<std::uint8_t>(v >> 16));
  out->push_back(static_cast<std::uint8_t>(v >> 24));
}

bool get_u32(const std::uint8_t* data, std::size_t n, std::size_t* pos,
             std::uint32_t* v) {
  if (*pos + 4 > n) return false;
  *v = static_cast<std::uint32_t>(data[*pos]) |
       (static_cast<std::uint32_t>(data[*pos + 1]) << 8) |
       (static_cast<std::uint32_t>(data[*pos + 2]) << 16) |
       (static_cast<std::uint32_t>(data[*pos + 3]) << 24);
  *pos += 4;
  return true;
}

}  // namespace

static_assert((5 * kMaxBlockBytes + 3) / 4 < kMaxBwtRows,
              "RLE1's worst case must fit the packed inverse-BWT table");

std::vector<std::uint8_t> compress_block(const std::uint8_t* data,
                                         std::size_t n) {
  if (n > kMaxBlockBytes)
    throw std::length_error("compress_block: block exceeds kMaxBlockBytes");
  const std::uint32_t crc = crc32(data, n);

  const std::vector<std::uint8_t> rle1 = rle1_encode(data, n);
  const BwtResult bwt = bwt_forward(rle1.data(), rle1.size());
  const std::vector<std::uint8_t> mtf =
      mtf_encode(bwt.last_column.data(), bwt.last_column.size());
  const std::vector<std::uint16_t> symbols = zrle_encode(mtf.data(), mtf.size());

  std::vector<std::uint64_t> freqs(kSymbolAlphabet, 0);
  for (auto s : symbols) ++freqs[s];
  const std::vector<std::uint8_t> lengths = huffman_code_lengths(freqs);
  const std::vector<std::uint32_t> codes = canonical_codes(lengths);

  std::vector<std::uint8_t> out;
  out.reserve(64 + symbols.size() / 2);
  put_u32(&out, kMagic);
  put_u32(&out, static_cast<std::uint32_t>(n));
  put_u32(&out, crc);
  put_u32(&out, static_cast<std::uint32_t>(rle1.size()));
  put_u32(&out, bwt.primary_index);

  BitWriter bw;
  for (std::size_t s = 0; s < kSymbolAlphabet; ++s) bw.put(lengths[s], kLenBits);
  for (auto s : symbols) bw.put(codes[s], lengths[s]);
  const std::vector<std::uint8_t> payload = bw.finish();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

// Decoding runs in two passes over the block, with no buffer between the
// stages beyond the inverse-BWT table:
//   1. Huffman symbols -> ZRLE runs -> MTF bytes, written as the low bytes of
//      tt (a zero run is one fill of the MTF front byte);
//   2. bwt_link packs the row links into tt, and the walk along them undoes
//      RLE1 as it goes, straight into the output.
DecodeResult decompress_block(const std::uint8_t* data, std::size_t n) {
  DecodeResult r;
  auto fail = [&r](const char* why) {
    r.error = why;
    r.data.clear();
    return std::move(r);
  };
  std::size_t pos = 0;
  std::uint32_t magic = 0, orig_size = 0, crc = 0, rle1_size = 0, primary = 0;
  if (!get_u32(data, n, &pos, &magic) || magic != kMagic) return fail("bad magic");
  if (!get_u32(data, n, &pos, &orig_size) || !get_u32(data, n, &pos, &crc) ||
      !get_u32(data, n, &pos, &rle1_size) || !get_u32(data, n, &pos, &primary))
    return fail("truncated header");
  // The sizes below are allocated from, so check them first.
  if (orig_size > kMaxBlockBytes ||
      rle1_size > (5 * static_cast<std::uint64_t>(orig_size) + 3) / 4)
    return fail("block size out of range");
  if (rle1_size == 0 ? primary != 0 : primary >= rle1_size)
    return fail("bad BWT index");

  BitReader br(data + pos, n - pos);
  std::vector<std::uint8_t> lengths(kSymbolAlphabet);
  for (auto& l : lengths) {
    std::uint64_t v;
    if (!br.get(kLenBits, &v) || v > kMaxCodeLen) return fail("bad code lengths");
    l = static_cast<std::uint8_t>(v);
  }
  HuffmanDecoder dec;
  if (!dec.init(lengths)) return fail("invalid prefix code");

  // Pass 1. A zero run's RUNA/RUNB digits weigh 1, 2, 4, ... times their
  // value, so the run is bounded against the room left as it accumulates.
  const std::unique_ptr<std::uint32_t[]> tt(new std::uint32_t[rle1_size]);
  std::uint32_t counts[256] = {};
  std::uint8_t order[256];
  std::iota(order, order + 256, 0);
  std::size_t filled = 0, run = 0, mult = 1;
  for (;;) {
    const int s = dec.decode(br);
    if (s < 0) return fail("truncated symbol stream");
    if (s <= kRunB) {
      run += static_cast<std::size_t>(s + 1) * mult;
      mult <<= 1;
      if (run > rle1_size - filled) return fail("zero run overruns declared size");
      continue;
    }
    if (run > 0) {
      const std::uint8_t b = order[0];
      std::fill_n(tt.get() + filled, run, b);
      counts[b] += static_cast<std::uint32_t>(run);
      filled += run;
      run = 0;
      mult = 1;
    }
    if (s == kEob) break;
    if (filled == rle1_size) return fail("symbol stream overruns declared size");
    const auto idx = static_cast<std::size_t>(s - 1);  // s is 2..256 here
    const std::uint8_t b = order[idx];
    std::memmove(order + 1, order, idx);
    order[0] = b;
    tt[filled++] = b;
    ++counts[b];
  }
  if (filled != rle1_size) return fail("size mismatch after ZRLE");

  // Pass 2. After four equal bytes the next one is RLE1's count of further
  // repeats; `prev` = 256 matches no byte, so a count starts a fresh group.
  bwt_link(tt.get(), rle1_size, counts);
  r.data.resize(orig_size);
  std::uint8_t* out = r.data.data();
  std::uint8_t* const end = out + orig_size;
  std::uint32_t p = rle1_size ? tt[primary] >> 8 : 0;
  std::uint32_t prev = 256;
  unsigned group = 0;
  for (std::size_t i = 0; i < rle1_size; ++i) {
    const std::uint32_t e = tt[p];
    p = e >> 8;
    const std::uint32_t b = e & 0xFF;
    if (group == 4) {
      if (b > static_cast<std::size_t>(end - out))
        return fail("RLE1 run overruns declared size");
      std::memset(out, static_cast<int>(prev), b);
      out += b;
      group = 0;
      prev = 256;
      continue;
    }
    group = b == prev ? group + 1 : 1;
    prev = b;
    if (out == end) return fail("RLE1 output overruns declared size");
    *out++ = static_cast<std::uint8_t>(b);
  }
  if (out != end) return fail("size mismatch after RLE1");
  if (crc32(r.data.data(), r.data.size()) != crc) return fail("CRC mismatch");
  r.ok = true;
  return r;
}

}  // namespace tle::bzip

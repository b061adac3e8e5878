// Tests for the from-scratch bzip2-style codec: each pipeline stage has unit
// tests plus known vectors, and the whole block codec has round-trip property
// tests and corruption detection tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>

#include "bzip/bitio.hpp"
#include "bzip/block_codec.hpp"
#include "bzip/bwt.hpp"
#include "bzip/crc32.hpp"
#include "bzip/huffman.hpp"
#include "bzip/mtf_rle.hpp"
#include "pipez/pipeline.hpp"
#include "util/rng.hpp"

namespace tle::bzip {
namespace {

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

std::string str(const std::vector<std::uint8_t>& v) {
  return {v.begin(), v.end()};
}

// ---------------------------------------------------------------------------
// Bit I/O
// ---------------------------------------------------------------------------

TEST(BitIo, RoundTripMixedWidths) {
  BitWriter w;
  w.put(0b101, 3);
  w.put(0xDEAD, 16);
  w.put(1, 1);
  w.put(0x3FFFFFFFF, 34);
  auto buf = w.finish();
  BitReader r(buf.data(), buf.size());
  std::uint64_t v;
  ASSERT_TRUE(r.get(3, &v));
  EXPECT_EQ(v, 0b101u);
  ASSERT_TRUE(r.get(16, &v));
  EXPECT_EQ(v, 0xDEADu);
  ASSERT_TRUE(r.get(1, &v));
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(r.get(34, &v));
  EXPECT_EQ(v, 0x3FFFFFFFFull);
}

TEST(BitIo, ReaderDetectsUnderrun) {
  BitWriter w;
  w.put(0xF, 4);
  auto buf = w.finish();  // one byte
  BitReader r(buf.data(), buf.size());
  std::uint64_t v;
  EXPECT_TRUE(r.get(8, &v));  // padded byte is readable
  EXPECT_FALSE(r.get(8, &v));

  // peek() reads zeros past the end; consume() reports the overrun.
  BitReader p(buf.data(), buf.size());
  EXPECT_EQ(p.peek(12), 0xF00u);
  EXPECT_TRUE(p.consume(6));
  EXPECT_EQ(p.peek(20), 0u);
  EXPECT_TRUE(p.consume(2));  // exactly at the end
  EXPECT_EQ(p.bits_consumed(), 8u);
  EXPECT_EQ(p.peek(1), 0u);
  EXPECT_FALSE(p.consume(1));

  // Past a whole-word refill: 9 bytes, then one bit too many.
  const std::vector<std::uint8_t> nine(9, 0xA5);
  BitReader q(nine.data(), nine.size());
  for (int i = 0; i < 9; ++i) {
    ASSERT_EQ(q.peek(8), 0xA5u) << i;
    ASSERT_TRUE(q.consume(8)) << i;
  }
  EXPECT_EQ(q.peek(32), 0u);
  EXPECT_FALSE(q.consume(1));
}

TEST(BitIo, ManySingleBits) {
  BitWriter w;
  for (int i = 0; i < 1000; ++i) w.put(static_cast<std::uint64_t>(i % 2), 1);
  auto buf = w.finish();
  BitReader r(buf.data(), buf.size());
  std::uint64_t v;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(r.get(1, &v)) << i;
    EXPECT_EQ(v, static_cast<std::uint64_t>(i % 2)) << i;
  }
}

// ---------------------------------------------------------------------------
// CRC32 known vectors
// ---------------------------------------------------------------------------

TEST(Crc32, KnownVectors) {
  const auto v = bytes("123456789");
  EXPECT_EQ(crc32(v.data(), v.size()), 0xCBF43926u);  // IEEE check value
  EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
  const auto a = bytes("a");
  EXPECT_EQ(crc32(a.data(), 1), 0xE8B7BE43u);
}

TEST(Crc32, DetectsSingleBitFlip) {
  auto v = bytes("the quick brown fox");
  const auto base = crc32(v.data(), v.size());
  v[3] ^= 1;
  EXPECT_NE(crc32(v.data(), v.size()), base);
}

// ---------------------------------------------------------------------------
// BWT
// ---------------------------------------------------------------------------

TEST(Bwt, BananaKnownVector) {
  const auto in = bytes("banana");
  const auto r = bwt_forward(in.data(), in.size());
  EXPECT_EQ(str(r.last_column), "nnbaaa");
  EXPECT_EQ(r.primary_index, 3u);
}

TEST(Bwt, InverseRecoversBanana) {
  const auto in = bytes("banana");
  const auto f = bwt_forward(in.data(), in.size());
  const auto back = bwt_inverse(f.last_column.data(), f.last_column.size(),
                                f.primary_index);
  EXPECT_EQ(str(back), "banana");
}

TEST(Bwt, EdgeCases) {
  // Empty.
  auto e = bwt_forward(nullptr, 0);
  EXPECT_TRUE(e.last_column.empty());
  EXPECT_TRUE(bwt_inverse(nullptr, 0, 0).empty());
  // Single byte.
  const std::uint8_t one = 'x';
  auto s = bwt_forward(&one, 1);
  ASSERT_EQ(s.last_column.size(), 1u);
  EXPECT_EQ(s.last_column[0], 'x');
  // All-equal (degenerate rotations).
  const auto all = bytes("aaaaaaaa");
  auto a = bwt_forward(all.data(), all.size());
  EXPECT_EQ(str(bwt_inverse(a.last_column.data(), 8, a.primary_index)),
            "aaaaaaaa");
  // Periodic.
  const auto per = bytes("abababab");
  auto p = bwt_forward(per.data(), per.size());
  EXPECT_EQ(str(bwt_inverse(p.last_column.data(), 8, p.primary_index)),
            "abababab");
}

TEST(Bwt, RandomRoundTripProperty) {
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.below(5000);
    std::vector<std::uint8_t> in(n);
    // Mix of random and structured content.
    const int alpha = trial % 2 ? 4 : 256;
    for (auto& b : in)
      b = static_cast<std::uint8_t>(rng.below(static_cast<std::uint64_t>(alpha)));
    const auto f = bwt_forward(in.data(), n);
    const auto back =
        bwt_inverse(f.last_column.data(), n, f.primary_index);
    ASSERT_EQ(back, in) << "trial " << trial;
  }
}

// Reference BWT: a stable sort of all rotations (ties, i.e. identical
// rotations of a periodic input, keep index order), compared with memcmp over
// the input written out twice.
BwtResult brute_force_bwt(const std::vector<std::uint8_t>& in) {
  const std::size_t n = in.size();
  std::vector<std::uint8_t> twice(in);
  twice.insert(twice.end(), in.begin(), in.end());
  std::vector<std::uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  std::stable_sort(rows.begin(), rows.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return std::memcmp(&twice[a], &twice[b], n) < 0;
                   });
  BwtResult out;
  for (std::size_t j = 0; j < n; ++j) {
    out.last_column.push_back(twice[rows[j] + n - 1]);
    if (rows[j] == 0) out.primary_index = static_cast<std::uint32_t>(j);
  }
  return out;
}

TEST(Bwt, MatchesBruteForceRotationSort) {
  Xoshiro256 rng(2024);
  for (int trial = 0; trial < 2400; ++trial) {
    const std::size_t n = 1 + rng.below(64);
    const auto letters = 1 + rng.below(4);
    std::vector<std::uint8_t> in(n);
    // Odd trials repeat a random prefix, so many rotations are identical.
    const std::size_t period = trial % 2 ? 1 + rng.below(n) : n;
    for (std::size_t i = 0; i < n; ++i)
      in[i] = i < period ? static_cast<std::uint8_t>('a' + rng.below(letters))
                         : in[i - period];
    const auto got = bwt_forward(in.data(), n);
    const auto want = brute_force_bwt(in);
    ASSERT_EQ(str(got.last_column), str(want.last_column)) << "trial " << trial;
    ASSERT_EQ(got.primary_index, want.primary_index) << "trial " << trial;
  }
  const auto block = pipez::make_corpus(100000, 1);
  const auto got = bwt_forward(block.data(), block.size());
  const auto want = brute_force_bwt(block);
  EXPECT_TRUE(got.last_column == want.last_column);
  EXPECT_EQ(got.primary_index, want.primary_index);
}

// ---------------------------------------------------------------------------
// RLE1
// ---------------------------------------------------------------------------

TEST(Rle1, ShortRunsPassThrough) {
  const auto in = bytes("aabbccdd");
  EXPECT_EQ(rle1_encode(in.data(), in.size()), in);
}

TEST(Rle1, LongRunCompresses) {
  std::vector<std::uint8_t> in(100, 'x');
  const auto enc = rle1_encode(in.data(), in.size());
  EXPECT_LT(enc.size(), in.size());
  EXPECT_EQ(rle1_decode(enc.data(), enc.size()), in);
}

TEST(Rle1, ExactRunBoundaries) {
  for (std::size_t run : {3u, 4u, 5u, 253u, 254u, 255u, 600u}) {
    std::vector<std::uint8_t> in(run, 'q');
    in.push_back('z');
    const auto enc = rle1_encode(in.data(), in.size());
    EXPECT_EQ(rle1_decode(enc.data(), enc.size()), in) << "run " << run;
  }
}

TEST(Rle1, CountByteEqualToRunByte) {
  // Run of 4 + 'a' extra repeats: the count byte equals the run byte in the
  // encoded stream — the decoder must not misparse it.
  std::vector<std::uint8_t> in(4 + 'a', 'a');
  const auto enc = rle1_encode(in.data(), in.size());
  EXPECT_EQ(rle1_decode(enc.data(), enc.size()), in);
}

TEST(Rle1, RandomRoundTrip) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::uint8_t> in;
    const std::size_t runs = rng.below(50);
    for (std::size_t i = 0; i < runs; ++i) {
      const auto b = static_cast<std::uint8_t>(rng.below(4));
      in.insert(in.end(), 1 + rng.below(600), b);
    }
    const auto enc = rle1_encode(in.data(), in.size());
    ASSERT_EQ(rle1_decode(enc.data(), enc.size()), in) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// MTF
// ---------------------------------------------------------------------------

TEST(Mtf, KnownBehaviour) {
  // First occurrence of byte b encodes as its current table index; repeats
  // of the same byte encode as 0.
  const auto in = bytes("aaabbb");
  const auto enc = mtf_encode(in.data(), in.size());
  EXPECT_EQ(enc[0], 'a');  // 'a' starts at index 97
  EXPECT_EQ(enc[1], 0);
  EXPECT_EQ(enc[2], 0);
  EXPECT_EQ(enc[3], 'b');  // 'b' is at 98 but 'a' moved ahead: index 98
  EXPECT_EQ(enc[4], 0);
  EXPECT_EQ(enc[5], 0);
}

TEST(Mtf, RoundTripAllBytes) {
  std::vector<std::uint8_t> in(512);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<std::uint8_t>(i * 37);
  const auto enc = mtf_encode(in.data(), in.size());
  EXPECT_EQ(mtf_decode(enc.data(), enc.size()), in);
}

// ---------------------------------------------------------------------------
// ZRLE
// ---------------------------------------------------------------------------

TEST(Zrle, ZeroRunsEncodeCompactly) {
  std::vector<std::uint8_t> in(1000, 0);
  const auto sym = zrle_encode(in.data(), in.size());
  EXPECT_LE(sym.size(), 12u);  // ~log2(1000) digits + EOB
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(zrle_decode(sym.data(), sym.size(), in.size(), &out));
  EXPECT_EQ(out, in);
}

TEST(Zrle, AllRunLengthsRoundTrip) {
  for (std::size_t len = 0; len <= 70; ++len) {
    std::vector<std::uint8_t> in(len, 0);
    in.push_back(42);
    const auto sym = zrle_encode(in.data(), in.size());
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(zrle_decode(sym.data(), sym.size(), in.size(), &out)) << len;
    ASSERT_EQ(out, in) << len;
  }
}

TEST(Zrle, RejectsMissingEob) {
  const std::uint16_t syms[] = {kRunA, 5};
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(zrle_decode(syms, 2, 100, &out));
}

TEST(Zrle, RejectsTrailingGarbageAfterEob) {
  const std::uint16_t syms[] = {kEob, kRunA};
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(zrle_decode(syms, 2, 100, &out));
}

// ---------------------------------------------------------------------------
// Huffman
// ---------------------------------------------------------------------------

TEST(Huffman, SkewedFrequenciesGiveShortCodesToCommonSymbols) {
  std::vector<std::uint64_t> freqs(8, 0);
  freqs[0] = 1000;
  freqs[1] = 10;
  freqs[2] = 1;
  const auto lens = huffman_code_lengths(freqs);
  EXPECT_LE(lens[0], lens[1]);
  EXPECT_LE(lens[1], lens[2]);
  EXPECT_EQ(lens[5], 0) << "unused symbols get no code";
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::vector<std::uint64_t> freqs(4, 0);
  freqs[2] = 5;
  const auto lens = huffman_code_lengths(freqs);
  EXPECT_EQ(lens[2], 1);
  HuffmanDecoder dec;
  ASSERT_TRUE(dec.init(lens));
  const auto codes = canonical_codes(lens);
  BitWriter w;
  for (int i = 0; i < 5; ++i) w.put(codes[2], lens[2]);
  auto buf = w.finish();
  BitReader r(buf.data(), buf.size());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(dec.decode(r), 2);
}

TEST(Huffman, DepthLimitRespected) {
  // Fibonacci-like frequencies force deep trees; limiting must kick in.
  std::vector<std::uint64_t> freqs(40);
  std::uint64_t a = 1, b = 1;
  for (auto& f : freqs) {
    f = a;
    const auto t = a + b;
    a = b;
    b = t;
  }
  const auto lens = huffman_code_lengths(freqs);
  for (auto l : lens) EXPECT_LE(l, kMaxCodeLen);
  const std::uint8_t deepest = *std::max_element(lens.begin(), lens.end());
  ASSERT_GT(deepest, HuffmanDecoder::kFastBits) << "must reach the slow path";

  // Every symbol round-trips, including the codes longer than the fast
  // table.
  const auto codes = canonical_codes(lens);
  BitWriter w;
  for (std::size_t s = 0; s < lens.size(); ++s) w.put(codes[s], lens[s]);
  const auto buf = w.finish();
  HuffmanDecoder dec;
  ASSERT_TRUE(dec.init(lens));
  BitReader r(buf.data(), buf.size());
  for (std::size_t s = 0; s < lens.size(); ++s)
    ASSERT_EQ(dec.decode(r), static_cast<int>(s)) << "symbol " << s;

  // A stream cut inside a long code fails instead of decoding the zero
  // padding.
  const auto longest = static_cast<std::size_t>(
      std::max_element(lens.begin(), lens.end()) - lens.begin());
  BitWriter t;
  t.put(codes[longest], lens[longest]);
  const auto cut = t.finish();
  BitReader tr(cut.data(), (lens[longest] - 1) / 8);
  EXPECT_EQ(dec.decode(tr), -1);
}

TEST(Huffman, EncodeDecodeRandomStream) {
  Xoshiro256 rng(3);
  std::vector<std::uint64_t> freqs(kSymbolAlphabet, 0);
  std::vector<std::uint16_t> stream(5000);
  for (auto& s : stream) {
    // Zipf-flavoured distribution.
    const auto z = rng.below(100);
    s = static_cast<std::uint16_t>(z < 60 ? rng.below(4)
                                          : rng.below(kSymbolAlphabet));
    ++freqs[s];
  }
  const auto lens = huffman_code_lengths(freqs);
  const auto codes = canonical_codes(lens);
  BitWriter w;
  for (auto s : stream) w.put(codes[s], lens[s]);
  auto buf = w.finish();
  HuffmanDecoder dec;
  ASSERT_TRUE(dec.init(lens));
  BitReader r(buf.data(), buf.size());
  for (std::size_t i = 0; i < stream.size(); ++i)
    ASSERT_EQ(dec.decode(r), stream[i]) << "symbol " << i;
}

TEST(Huffman, DecoderRejectsOvercompleteCode) {
  std::vector<std::uint8_t> lens = {1, 1, 1};  // Kraft sum 1.5 > 1
  HuffmanDecoder dec;
  EXPECT_FALSE(dec.init(lens));
}

// ---------------------------------------------------------------------------
// Block codec end-to-end
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> compressible_corpus(std::size_t n, std::uint64_t seed) {
  // Markov-ish text: long repeated phrases with occasional noise.
  static const char* words[] = {"the ",     "quick ", "brown ",  "fox ",
                                "jumps ",   "over ",  "lazy ",   "dog ",
                                "streams ", "block ", "cipher ", "memory "};
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const char* w = words[rng.below(12)];
    out.insert(out.end(), w, w + std::strlen(w));
    if (rng.chance(0.02)) out.push_back(static_cast<std::uint8_t>(rng.below(256)));
  }
  out.resize(n);
  return out;
}

TEST(BlockCodec, RoundTripText) {
  const auto in = compressible_corpus(50000, 1);
  const auto comp = compress_block(in);
  EXPECT_LT(comp.size(), in.size() / 2) << "text must compress well";
  const auto dec = decompress_block(comp);
  ASSERT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(dec.data, in);
}

TEST(BlockCodec, RoundTripEmpty) {
  const auto comp = compress_block(nullptr, 0);
  const auto dec = decompress_block(comp);
  ASSERT_TRUE(dec.ok) << dec.error;
  EXPECT_TRUE(dec.data.empty());
}

TEST(BlockCodec, RoundTripIncompressibleRandom) {
  Xoshiro256 rng(2);
  std::vector<std::uint8_t> in(20000);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng());
  const auto comp = compress_block(in);
  const auto dec = decompress_block(comp);
  ASSERT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(dec.data, in);
}

TEST(BlockCodec, RoundTripHighlyRepetitive) {
  std::vector<std::uint8_t> in(100000, 'A');
  for (std::size_t i = 0; i < in.size(); i += 1000) in[i] = 'B';
  const auto comp = compress_block(in);
  EXPECT_LT(comp.size(), 2000u);
  const auto dec = decompress_block(comp);
  ASSERT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(dec.data, in);
}

// Pins the emitted bytes: any change to the encoder or the sort order that
// alters the stream shows up here.
TEST(BlockCodec, StreamIsByteStable) {
  const auto text = pipez::make_corpus(100000, 1);
  const auto comp = compress_block(text);
  EXPECT_EQ(comp.size(), 14209u);
  EXPECT_EQ(crc32(comp.data(), comp.size()), 0xF90F80F8u);

  // Period 18 over 18000 bytes: every rotation has 999 identical twins.
  const std::string phrase = "lock elide commit ";
  std::vector<std::uint8_t> periodic;
  for (int i = 0; i < 1000; ++i)
    periodic.insert(periodic.end(), phrase.begin(), phrase.end());
  const auto pcomp = compress_block(periodic);
  EXPECT_EQ(pcomp.size(), 225u);
  EXPECT_EQ(crc32(pcomp.data(), pcomp.size()), 0xB1C506CDu);
}

TEST(BlockCodec, RandomSizesProperty) {
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = rng.below(9000);
    auto in = compressible_corpus(n, 100 + static_cast<std::uint64_t>(trial));
    const auto comp = compress_block(in);
    const auto dec = decompress_block(comp);
    ASSERT_TRUE(dec.ok) << "trial " << trial << ": " << dec.error;
    ASSERT_EQ(dec.data, in) << "trial " << trial;
  }
}

TEST(BlockCodec, DetectsCorruption) {
  const auto in = compressible_corpus(8000, 5);
  auto comp = compress_block(in);
  int detected = 0;
  Xoshiro256 rng(8);
  for (int trial = 0; trial < 40; ++trial) {
    auto bad = comp;
    bad[rng.below(bad.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    const auto dec = decompress_block(bad);
    if (!dec.ok)
      ++detected;
    else if (dec.data != in)
      ADD_FAILURE() << "silent corruption accepted at trial " << trial;
  }
  EXPECT_EQ(detected, 40) << "every single-byte corruption must be caught";
}

TEST(BlockCodec, DetectsTruncation) {
  const auto in = compressible_corpus(4000, 6);
  const auto comp = compress_block(in);
  for (std::size_t cut : {0u, 3u, 10u, 19u, 21u}) {
    const auto dec = decompress_block(comp.data(), std::min(cut, comp.size()));
    EXPECT_FALSE(dec.ok) << "cut " << cut;
  }
  const auto dec = decompress_block(comp.data(), comp.size() - 5);
  EXPECT_FALSE(dec.ok);
}

// 40 RUNB digits declare a zero run of 2 * (2^40 - 1) bytes: far past the
// block's declared size, which must bound it before anything is allocated.
TEST(BlockCodec, RejectsUnboundedZeroRun) {
  std::vector<std::uint16_t> syms(40, kRunB);
  syms.push_back(kEob);
  std::vector<std::uint8_t> mtf;
  EXPECT_FALSE(zrle_decode(syms.data(), syms.size(), 100, &mtf));
  EXPECT_LE(mtf.size(), 100u);

  // The same payload as a block: RUNB and EOB get 1-bit codes (0 and 1).
  BitWriter w;
  const std::uint32_t header[] = {0x545A4231 /* "TZB1" */, 100, 0, 100, 0};
  for (std::uint32_t word : header)
    for (int k = 0; k < 4; ++k) w.put((word >> (8 * k)) & 0xFF, 8);
  for (std::size_t s = 0; s < kSymbolAlphabet; ++s)
    w.put(s == kRunB || s == kEob ? 1 : 0, 5);
  for (int i = 0; i < 40; ++i) w.put(0, 1);
  w.put(1, 1);
  const auto block = w.finish();
  DecodeResult dec;
  ASSERT_NO_THROW(dec = decompress_block(block));
  EXPECT_FALSE(dec.ok);
  EXPECT_FALSE(dec.error.empty());
}

TEST(BlockCodec, RejectsGarbageInput) {
  std::vector<std::uint8_t> junk(100, 0xCD);
  EXPECT_FALSE(decompress_block(junk).ok);
  EXPECT_FALSE(decompress_block(nullptr, 0).ok);
}

}  // namespace
}  // namespace tle::bzip

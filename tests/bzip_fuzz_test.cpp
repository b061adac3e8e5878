// Adversarial/structured-input property tests for the bzip codec: inputs
// chosen to stress each pipeline stage's edge behaviour.
#include <gtest/gtest.h>

#include <numeric>

#include "bzip/block_codec.hpp"
#include "util/rng.hpp"

namespace tle::bzip {
namespace {

void expect_roundtrip(const std::vector<std::uint8_t>& in, const char* what) {
  const auto comp = compress_block(in);
  const auto dec = decompress_block(comp);
  ASSERT_TRUE(dec.ok) << what << ": " << dec.error;
  ASSERT_EQ(dec.data, in) << what;
}

TEST(BzipFuzz, SingleRepeatedByteAllValues) {
  for (int b : {0, 1, 0x41, 0xFE, 0xFF}) {
    std::vector<std::uint8_t> in(5000, static_cast<std::uint8_t>(b));
    expect_roundtrip(in, "repeated byte");
  }
}

TEST(BzipFuzz, SawtoothPatterns) {
  for (int period : {2, 3, 17, 255, 256, 257}) {
    std::vector<std::uint8_t> in(8192);
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = static_cast<std::uint8_t>(i % period);
    expect_roundtrip(in, "sawtooth");
  }
}

TEST(BzipFuzz, AllByteValuesCyclic) {
  std::vector<std::uint8_t> in(256 * 16);
  std::iota(in.begin(), in.begin() + 256, 0);
  for (int k = 1; k < 16; ++k)
    std::copy(in.begin(), in.begin() + 256, in.begin() + k * 256);
  expect_roundtrip(in, "cyclic alphabet");
}

TEST(BzipFuzz, RunsAtRle1Boundaries) {
  // Runs hitting RLE1's 4- and 254-run thresholds back to back, with the
  // count byte equal to the run byte where possible.
  std::vector<std::uint8_t> in;
  for (std::size_t run : {3u, 4u, 5u, 100u, 253u, 254u, 255u, 300u, 508u}) {
    in.insert(in.end(), run, static_cast<std::uint8_t>(run & 0xFF));
    in.push_back('#');
  }
  expect_roundtrip(in, "rle boundaries");
}

TEST(BzipFuzz, TinySizes) {
  Xoshiro256 rng(1);
  for (std::size_t n = 0; n <= 16; ++n) {
    std::vector<std::uint8_t> in(n);
    for (auto& b : in) b = static_cast<std::uint8_t>(rng());
    expect_roundtrip(in, "tiny");
  }
}

TEST(BzipFuzz, AlternatingCompressibleAndNoise) {
  Xoshiro256 rng(2);
  std::vector<std::uint8_t> in;
  for (int seg = 0; seg < 24; ++seg) {
    if (seg % 2 == 0) {
      in.insert(in.end(), 400, static_cast<std::uint8_t>('a' + seg % 26));
    } else {
      for (int i = 0; i < 400; ++i)
        in.push_back(static_cast<std::uint8_t>(rng()));
    }
  }
  expect_roundtrip(in, "mixed");
}

TEST(BzipFuzz, PeriodicInputsStressRotationSort) {
  // Highly periodic data creates maximal ties in the BWT rotation sort.
  for (int period : {1, 2, 4, 8}) {
    std::vector<std::uint8_t> in(4096);
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = static_cast<std::uint8_t>((i / static_cast<std::size_t>(period)) & 1 ? 'x' : 'y');
    expect_roundtrip(in, "periodic");
  }
}

TEST(BzipFuzz, RandomSizedRandomContent) {
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = rng.below(20000);
    std::vector<std::uint8_t> in(n);
    // Mix distribution widths: narrow alphabets produce long MTF zero runs.
    const std::uint64_t width = 1 + rng.below(256);
    for (auto& b : in) b = static_cast<std::uint8_t>(rng.below(width));
    expect_roundtrip(in, "random");
  }
}

TEST(BzipFuzz, HeaderFieldCorruptionAlwaysDetected) {
  const auto in = std::vector<std::uint8_t>(3000, 'q');
  const auto comp = compress_block(in);
  // Corrupt each of the five header words in turn.
  for (std::size_t field = 0; field < 5; ++field) {
    auto bad = comp;
    bad[field * 4 + 1] ^= 0x5A;
    const auto dec = decompress_block(bad);
    EXPECT_FALSE(dec.ok && dec.data == in) << "field " << field;
  }
  // Then every byte of the block, header and payload, with several masks:
  // decoding never throws, and never accepts different data. A flip in the
  // payload's final padding bits may decode cleanly to the original.
  for (std::size_t at = 0; at < comp.size(); ++at) {
    for (std::uint8_t mask : {0x01, 0x5A, 0x80, 0xFF}) {
      auto bad = comp;
      bad[at] ^= mask;
      DecodeResult dec;
      ASSERT_NO_THROW(dec = decompress_block(bad)) << "byte " << at;
      if (dec.ok)
        EXPECT_EQ(dec.data, in) << "byte " << at << " mask " << int{mask};
      else
        EXPECT_FALSE(dec.error.empty()) << "byte " << at;
    }
  }
}

}  // namespace
}  // namespace tle::bzip

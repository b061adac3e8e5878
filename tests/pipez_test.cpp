// Integration tests for the pipez pipeline: round-trips across every
// execution mode × thread count × block size, ordering, corruption handling,
// deferred logging, and the paper's in-text transaction-count expectations.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "bzip/block_codec.hpp"
#include "pipez/pipeline.hpp"
#include "test_support.hpp"

namespace tle::pipez {
namespace {

using tle::testing::kAllModes;
using tle::testing::ModeGuard;

struct Case {
  ExecMode mode;
  int threads;
  std::size_t block;
};

class PipezMatrix : public ::testing::TestWithParam<Case> {};

std::vector<Case> matrix() {
  std::vector<Case> cases;
  for (ExecMode m : kAllModes)
    for (int t : {1, 4})
      for (std::size_t b : {16384u, 100000u})
        cases.push_back({m, t, b});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Pipez, PipezMatrix, ::testing::ValuesIn(matrix()),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string s = to_string(info.param.mode);
      for (auto& c : s)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return s + "_t" + std::to_string(info.param.threads) + "_b" +
             std::to_string(info.param.block);
    });

TEST_P(PipezMatrix, RoundTrip) {
  const Case c = GetParam();
  ModeGuard g(c.mode);
  const auto input = make_corpus(400000, 42);
  Config cfg;
  cfg.worker_threads = c.threads;
  cfg.block_size = c.block;
  RunStats cs{}, ds{};
  const auto compressed = compress(input, cfg, &cs);
  EXPECT_LT(compressed.size(), input.size()) << "corpus must compress";
  EXPECT_EQ(cs.blocks, (input.size() + c.block - 1) / c.block);
  const auto back = decompress(compressed, cfg, &ds);
  ASSERT_TRUE(back.ok) << back.error;
  EXPECT_EQ(back.data, input);
}

TEST(Pipez, EmptyInput) {
  ModeGuard g(ExecMode::StmCondVar);
  Config cfg;
  cfg.worker_threads = 2;
  const auto compressed = compress({}, cfg);
  const auto back = decompress(compressed, cfg);
  ASSERT_TRUE(back.ok) << back.error;
  EXPECT_TRUE(back.data.empty());
}

TEST(Pipez, SingleBlockSmallerThanBlockSize) {
  ModeGuard g(ExecMode::Htm);
  Config cfg;
  cfg.worker_threads = 2;
  cfg.block_size = 1 << 20;
  const auto input = make_corpus(1000, 1);
  const auto back = decompress(compress(input, cfg), cfg);
  ASSERT_TRUE(back.ok) << back.error;
  EXPECT_EQ(back.data, input);
}

TEST(Pipez, MoreThreadsThanBlocks) {
  ModeGuard g(ExecMode::StmCondVarNoQ);
  Config cfg;
  cfg.worker_threads = 8;
  cfg.block_size = 64 * 1024;
  const auto input = make_corpus(100000, 2);  // 2 blocks, 8 workers
  const auto back = decompress(compress(input, cfg), cfg);
  ASSERT_TRUE(back.ok) << back.error;
  EXPECT_EQ(back.data, input);
}

TEST(Pipez, CorruptStreamIsRejectedNotCrashed) {
  ModeGuard g(ExecMode::Lock);
  Config cfg;
  cfg.worker_threads = 2;
  cfg.block_size = 32768;
  const auto input = make_corpus(200000, 3);
  auto compressed = compress(input, cfg);
  // Flip a byte inside a block payload (past the 16-byte stream header and
  // 4-byte frame length).
  compressed[compressed.size() / 2] ^= 0x40;
  const auto back = decompress(compressed, cfg);
  EXPECT_FALSE(back.ok);
  EXPECT_FALSE(back.error.empty());
}

// Header words sized the block table, the output collector and the output
// buffer before any check: oversized values must fail, not throw.
TEST(Pipez, CorruptHeaderSizesAreRejected) {
  ModeGuard g(ExecMode::Lock);
  Config cfg;
  cfg.worker_threads = 2;
  cfg.block_size = 32768;
  const auto input = make_corpus(200000, 3);
  const auto compressed = compress(input, cfg);
  // Stream header: magic | nblocks | block_size | orig_size (u32 LE each).
  for (std::size_t at : {6u, 7u, 10u, 11u, 14u, 15u}) {
    auto bad = compressed;
    bad[at] = 0xFF;
    DecompressResult back;
    ASSERT_NO_THROW(back = decompress(bad, cfg)) << "byte " << at;
    EXPECT_FALSE(back.ok) << "byte " << at;
    EXPECT_FALSE(back.error.empty()) << "byte " << at;
  }

  Config too_big = cfg;
  too_big.block_size = bzip::kMaxBlockBytes + 1;
  EXPECT_THROW((void)compress(input, too_big), std::invalid_argument);
}

TEST(Pipez, TruncatedStreamIsRejected) {
  ModeGuard g(ExecMode::Lock);
  Config cfg;
  cfg.worker_threads = 2;
  const auto input = make_corpus(50000, 4);
  auto compressed = compress(input, cfg);
  compressed.resize(compressed.size() / 3);
  EXPECT_FALSE(decompress(compressed, cfg).ok);
  compressed.resize(7);
  EXPECT_FALSE(decompress(compressed, cfg).ok);
}

TEST(Pipez, OutputIsDeterministicAcrossModesAndThreads) {
  // The compressed stream must be bit-identical regardless of execution
  // mode or parallelism (ordered reassembly).
  const auto input = make_corpus(300000, 5);
  Config cfg;
  cfg.block_size = 50000;
  cfg.worker_threads = 1;
  ModeGuard base(ExecMode::Lock);
  const auto reference = compress(input, cfg);
  for (ExecMode m : kAllModes) {
    ModeGuard g(m);
    for (int threads : {1, 4}) {
      Config c2 = cfg;
      c2.worker_threads = threads;
      EXPECT_EQ(compress(input, c2), reference)
          << to_string(m) << " threads=" << threads;
    }
  }
}

TEST(Pipez, DeferredLoggingCapturesEveryBlock) {
  ModeGuard g(ExecMode::StmCondVar);
  Config cfg;
  cfg.worker_threads = 2;
  cfg.block_size = 25000;
  cfg.verbose_log = true;
  const auto input = make_corpus(200000, 6);
  drain_log();  // clear residue
  (void)compress(input, cfg);
  const auto log = drain_log();
  EXPECT_EQ(log.size(), 8u) << "one deferred line per produced block";
  for (const auto& line : log)
    EXPECT_NE(line.find("produce block="), std::string::npos) << line;
}

TEST(Pipez, TransactionCountsMatchPipelineShape) {
  // Paper §VII-A: PBZip2's critical sections guard queue metadata only, so
  // the transaction count scales with blocks, and STM abort rates are tiny.
  ModeGuard g(ExecMode::StmCondVar);
  Config cfg;
  cfg.worker_threads = 4;
  cfg.block_size = 20000;
  const auto input = make_corpus(400000, 7);  // 20 blocks
  reset_stats();
  (void)compress(input, cfg);
  const auto s = aggregate_stats();
  // Each block passes: producer push + consumer pop + deliver + writer await
  // = >= 4 sections; waits add more. Conflicts should be rare.
  EXPECT_GE(s.commits + s.serial_commits, 4 * 20u);
  EXPECT_LT(s.abort_rate(), 0.5) << "queue transactions mostly succeed";
}

TEST(Pipez, CorpusIsDeterministicAndCompressible) {
  const auto a = make_corpus(100000, 9);
  const auto b = make_corpus(100000, 9);
  EXPECT_EQ(a, b);
  const auto c = make_corpus(100000, 10);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace tle::pipez

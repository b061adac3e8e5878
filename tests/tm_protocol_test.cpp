// Tests for the StmProtocol seam (src/tm/protocol/).
//
//   * Seam parity: every protocol behind the seam (ml_wt, gl_wt) preserves
//     the engine contracts — commit/abort accounting, honest abort causes,
//     counter hygiene (an STM protocol bumps no HTM rows, and only ml_wt
//     bumps its read filter's row), and byte-identical seeded fault replay.
//   * ml_wt semantics: encounter-time write locks make a reader of an
//     in-flight write conflict-abort until the writer commits.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "test_support.hpp"
#include "tm/fault/fault.hpp"

namespace tle {
namespace {

using testing::ModeGuard;
using testing::run_threads;
namespace fault = tle::fault;

/// STM+CondVar ModeGuard plus the protocol under test; quiescence defaults
/// to the engine default (Always) unless the test says otherwise.
struct AlgoGuard {
  explicit AlgoGuard(StmAlgo algo) : g(ExecMode::StmCondVar) {
    config().stm_algo = algo;
    reset_stats();
  }
  ModeGuard g;
};

long read_plain(tm_var<long>& v) {
  long out = 0;
  atomic_do([&](TxContext& tx) { out = tx.read(v); });
  return out;
}

void await_flag(const std::atomic<bool>& f) {
  while (!f.load(std::memory_order_acquire)) std::this_thread::yield();
}

// ---------------------------------------------------------------------------
// Seam parity matrix
// ---------------------------------------------------------------------------

class ProtocolMatrix : public ::testing::TestWithParam<StmAlgo> {};

INSTANTIATE_TEST_SUITE_P(Tm, ProtocolMatrix,
                         ::testing::Values(StmAlgo::MlWt, StmAlgo::GlWt),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST_P(ProtocolMatrix, ContendedCounterCommitsExactlyOnce) {
  AlgoGuard g(GetParam());
  tm_var<long> counter{0};
  constexpr int kThreads = 4, kIters = 500;
  run_threads(kThreads, [&](int) {
    for (int i = 0; i < kIters; ++i)
      atomic_do([&](TxContext& tx) { tx.fetch_add(counter, 1L); });
  });
  const auto s = aggregate_stats();
  EXPECT_EQ(s.commits + s.serial_commits, 1u * kThreads * kIters);
  EXPECT_EQ(read_plain(counter), kThreads * kIters);
  // Honest causes only: a protocol may abort with Conflict, Validation, or
  // SerialPending (plus the governor's serial windows); nothing in this
  // workload can produce HTM-only causes.
  EXPECT_EQ(s.aborts[static_cast<int>(AbortCause::Capacity)], 0u);
  EXPECT_EQ(s.aborts[static_cast<int>(AbortCause::Spurious)], 0u);
  EXPECT_EQ(s.aborts[static_cast<int>(AbortCause::StripeBusy)], 0u);
}

TEST_P(ProtocolMatrix, CounterRowsStayInTheirLane) {
  AlgoGuard g(GetParam());
  tm_var<long> a{0}, b{0};
  run_threads(2, [&](int) {
    for (int i = 0; i < 300; ++i)
      atomic_do([&](TxContext& tx) {
        tx.fetch_add(a, 1L);
        tx.fetch_add(b, 1L);
      });
  });
  const auto s = aggregate_stats();
  // The simulated-HTM rows move only under HTM.
  EXPECT_EQ(s.htm_retries, 0u);
  EXPECT_EQ(s.htm_read_dedup, 0u);
  EXPECT_EQ(s.htm_rw_hits, 0u);
  EXPECT_EQ(s.stripe_bumps, 0u);
  EXPECT_EQ(s.lazy_sub_commits, 0u);
  // gl_wt logs no read set, so the repeat-read filter row is ml_wt's alone.
  if (GetParam() == StmAlgo::GlWt) {
    EXPECT_EQ(s.stm_read_dedup, 0u);
  }
  EXPECT_EQ(read_plain(a), 600);
  EXPECT_EQ(read_plain(b), 600);
}

TEST_P(ProtocolMatrix, SeededFaultReplayIsByteIdentical) {
  // One thread, one seed, two runs: the fault harness must consult the same
  // (hook, event) stream through the protocol's read/write/commit/rollback
  // paths both times — any protocol-internal nondeterminism (extra hook
  // consults, order changes) shows up as a Counts mismatch.
  AlgoGuard g(GetParam());
  const char* spec =
      "conflict@read=0.1,validation@commit=0.15,spurious@begin=0.02";
  auto run_once = [&] {
    fault::set_thread_stream(42);
    tm_var<long> v{0};
    for (int i = 0; i < 400; ++i)
      atomic_do([&](TxContext& tx) { tx.fetch_add(v, 1L); });
    EXPECT_EQ(read_plain(v), 400);
  };
  ASSERT_TRUE(fault::install_spec(spec, 0xABCD1234));
  run_once();
  const fault::Counts first = fault::snapshot();
  ASSERT_TRUE(fault::install_spec(spec, 0xABCD1234));
  run_once();
  const fault::Counts second = fault::snapshot();
  fault::clear();
  EXPECT_GT(first.injected_total(), 0u);
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// ml_wt semantics
// ---------------------------------------------------------------------------

TEST(MlWtSemantics, ReaderPassesThroughInFlightWriterMlWtAborts) {
  // Writer holds an uncommitted write to `b` while a reader reads it. ml_wt
  // locked b at encounter time, so the read is a Conflict abort and the
  // reader can only finish after the writer commits.
  AlgoGuard g(StmAlgo::MlWt);
  config().quiesce = QuiescePolicy::Never;  // writer parks mid-transaction
  reset_stats();
  tm_var<long> a{1}, b{10};
  std::atomic<bool> writer_in_flight{false}, release_writer{false};

  std::thread writer([&] {
    atomic_do([&](TxContext& tx) {
      tx.write(b, 20L);
      writer_in_flight.store(true);
      await_flag(release_writer);
    });
  });
  long got_a = 0, got_b = 0;
  std::thread reader([&] {
    await_flag(writer_in_flight);
    atomic_do([&](TxContext& tx) {
      got_a = tx.read(a);
      got_b = tx.read(b);
    });
  });

  // Waiting for the reader before releasing the writer would deadlock;
  // release it once the reader has hit the encounter lock.
  await_flag(writer_in_flight);
  while (aggregate_stats().aborts[static_cast<int>(AbortCause::Conflict)] ==
         0)
    std::this_thread::yield();
  release_writer.store(true);
  writer.join();
  reader.join();

  EXPECT_EQ(got_a, 1);
  EXPECT_EQ(got_b, 20);
  EXPECT_EQ(read_plain(b), 20);
}

}  // namespace
}  // namespace tle

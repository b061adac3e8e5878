// Tests for the striped simulated-HTM commit sequence and its subscription
// policy:
//
//   * stripe mapping determinism, config validation, stripe_of() agreement;
//   * the intersection matrix: a commit on a foreign stripe is invisible to
//     a reader, an aliased commit on a subscribed stripe costs exactly one
//     false revalidation, a true conflict still aborts and retries;
//   * htm_seq_stripes=1 reproduces the old single-sequence protocol;
//   * stripe_bumps accounting per distinct write stripe;
//   * the lazy-subscription unsafety: a serial-writer window that starts
//     and finishes inside a lazy HTM transaction yields the forbidden
//     mixed-snapshot (zombie) commit, while eager per-access subscription
//     provably aborts the reader instead;
//   * StripeBusy is injectable by name, drained budget-free, and bounded
//     by the watchdog;
//   * seeded fault plans replay byte-identically over this scenario.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "test_support.hpp"
#include "tm/fault/fault.hpp"
#include "tm/tm.hpp"

namespace {

using tle::AbortCause;
using tle::aggregate_stats;
using tle::atomic_do;
using tle::config;
using tle::ExecMode;
using tle::HtmSubscription;
using tle::htm_stripe_index;
using tle::kHtmStripeMax;
using tle::reset_stats;
using tle::StatsSnapshot;
using tle::stripe_of;
using tle::synchronized_do;
using tle::tm_var;
using tle::TxContext;
using tle::validate_config;
using tle::testing::ModeGuard;
using tle::testing::run_threads;
namespace fault = tle::fault;

std::uint64_t aborts_of(const StatsSnapshot& s, AbortCause c) {
  return s.aborts[static_cast<int>(c)];
}

/// Find an index in `vars` whose stripe satisfies `pred`; -1 if none.
template <typename Pred>
int find_var(const std::vector<tm_var<long>>& vars, Pred pred) {
  for (std::size_t i = 0; i < vars.size(); ++i)
    if (pred(stripe_of(vars[i]), i)) return static_cast<int>(i);
  return -1;
}

// ---------------------------------------------------------------------------
// Mapping & config
// ---------------------------------------------------------------------------

TEST(StripeMapping, DeterministicBoundedAndAgreesWithStripeOf) {
  ModeGuard mode(ExecMode::Htm);
  config().htm_seq_stripes = 16;
  std::vector<tm_var<long>> vars(64);
  for (const auto& v : vars) {
    const unsigned s = stripe_of(v);
    EXPECT_LT(s, config().htm_seq_stripes);
    EXPECT_EQ(s, htm_stripe_index(&v.raw()));
    EXPECT_EQ(s, stripe_of(v));  // stable across calls
  }
}

TEST(StripeMapping, SingleStripeCollapsesToZero) {
  ModeGuard mode(ExecMode::Htm);
  config().htm_seq_stripes = 1;
  std::vector<tm_var<long>> vars(32);
  for (const auto& v : vars) EXPECT_EQ(stripe_of(v), 0u);
}

TEST(StripeConfig, ValidateRejectsNonPowerOfTwoAndOutOfRange) {
  tle::RuntimeConfig cfg;
  for (unsigned good : {1u, 2u, 16u, kHtmStripeMax}) {
    cfg.htm_seq_stripes = good;
    EXPECT_EQ(validate_config(cfg), nullptr) << good;
  }
  for (unsigned bad : {0u, 3u, 24u, kHtmStripeMax * 2}) {
    cfg.htm_seq_stripes = bad;
    EXPECT_NE(validate_config(cfg), nullptr) << bad;
  }
}

// ---------------------------------------------------------------------------
// Intersection matrix
// ---------------------------------------------------------------------------

/// Rendezvous scaffold: a reader transaction that logs `first`, lets the
/// writer thread run `writer_fn` to completion, then touches `after` and
/// commits. Returns the reader's two observed values.
struct MatrixResult {
  long first = -1;
  long again = -1;
};

template <typename WriterFn>
MatrixResult run_matrix_cell(tm_var<long>& first, tm_var<long>& after,
                             WriterFn writer_fn) {
  // Monotonic flags, not a phase counter: an aborted reader re-runs its
  // body, and a re-store must not rewind the rendezvous.
  std::atomic<bool> reader_in{false}, writer_done{false};
  MatrixResult out;
  std::thread writer([&] {
    while (!reader_in.load(std::memory_order_acquire))
      std::this_thread::yield();
    writer_fn();
    writer_done.store(true, std::memory_order_release);
  });
  atomic_do([&](TxContext& ctx) {
    out.first = ctx.read(first);
    reader_in.store(true, std::memory_order_release);
    while (!writer_done.load(std::memory_order_acquire))
      std::this_thread::yield();
    (void)ctx.read(after);       // fresh address: subscribes + revalidates
    out.again = ctx.read(first);  // served from the value log
  });
  writer.join();
  return out;
}

TEST(StripeMatrix, ForeignStripeCommitIsInvisibleToReader) {
  ModeGuard mode(ExecMode::Htm);
  config().htm_seq_stripes = 16;
  reset_stats();
  std::vector<tm_var<long>> vars(2048);
  const int a = find_var(vars, [](unsigned, std::size_t) { return true; });
  const unsigned sa = stripe_of(vars[a]);
  // Writer target on a different stripe; second reader address on stripe sa
  // so the new subscription re-checks only the unmoved home stripe.
  const int b = find_var(vars, [&](unsigned s, std::size_t i) {
    return s != sa && static_cast<int>(i) != a;
  });
  const int a2 = find_var(vars, [&](unsigned s, std::size_t i) {
    return s == sa && static_cast<int>(i) != a;
  });
  ASSERT_GE(b, 0);
  ASSERT_GE(a2, 0);

  const MatrixResult r = run_matrix_cell(vars[a], vars[a2], [&] {
    atomic_do([&](TxContext& ctx) { ctx.write(vars[b], 7L); });
  });
  EXPECT_EQ(r.first, 0);
  EXPECT_EQ(r.again, 0);
  const StatsSnapshot s = aggregate_stats();
  EXPECT_EQ(aborts_of(s, AbortCause::Validation), 0u);
  EXPECT_EQ(s.stripe_false_revalidations, 0u);
  EXPECT_EQ(vars[b].unsafe_get(), 7);
}

TEST(StripeMatrix, AliasedCommitCostsOneFalseRevalidationNotAnAbort) {
  ModeGuard mode(ExecMode::Htm);
  config().htm_seq_stripes = 16;
  reset_stats();
  std::vector<tm_var<long>> vars(2048);
  const int a = find_var(vars, [](unsigned, std::size_t) { return true; });
  const unsigned sa = stripe_of(vars[a]);
  // A different address that aliases onto the reader's subscribed stripe.
  const int alias = find_var(vars, [&](unsigned s, std::size_t i) {
    return s == sa && static_cast<int>(i) != a;
  });
  const int other = find_var(vars, [&](unsigned s, std::size_t i) {
    return static_cast<int>(i) != a && static_cast<int>(i) != alias &&
           s != sa;
  });
  ASSERT_GE(alias, 0);
  ASSERT_GE(other, 0);

  const MatrixResult r = run_matrix_cell(vars[a], vars[other], [&] {
    atomic_do([&](TxContext& ctx) { ctx.write(vars[alias], 9L); });
  });
  EXPECT_EQ(r.first, 0);
  EXPECT_EQ(r.again, 0);
  const StatsSnapshot s = aggregate_stats();
  EXPECT_EQ(aborts_of(s, AbortCause::Validation), 0u);
  EXPECT_GE(s.stripe_false_revalidations, 1u);
  EXPECT_EQ(vars[alias].unsafe_get(), 9);
}

TEST(StripeMatrix, TrueConflictOnSubscribedStripeAbortsAndRetries) {
  ModeGuard mode(ExecMode::Htm);
  config().htm_seq_stripes = 16;
  reset_stats();
  std::vector<tm_var<long>> vars(2048);
  const int a = find_var(vars, [](unsigned, std::size_t) { return true; });
  const int other = find_var(vars, [&](unsigned, std::size_t i) {
    return static_cast<int>(i) != a;
  });
  ASSERT_GE(other, 0);

  // The writer overwrites the very word the reader logged; once the retry
  // re-reads it the rendezvous phases are already past, so attempt 2 runs
  // straight through and must observe the new value.
  const MatrixResult r = run_matrix_cell(vars[a], vars[other], [&] {
    atomic_do([&](TxContext& ctx) { ctx.write(vars[a], 11L); });
  });
  EXPECT_EQ(r.first, 11);
  EXPECT_EQ(r.again, 11);
  const StatsSnapshot s = aggregate_stats();
  EXPECT_GE(aborts_of(s, AbortCause::Validation), 1u);
}

// ---------------------------------------------------------------------------
// Accounting & the 1-stripe ablation config
// ---------------------------------------------------------------------------

TEST(StripeAccounting, BumpsCountDistinctWriteStripes) {
  ModeGuard mode(ExecMode::Htm);
  config().htm_seq_stripes = 16;
  std::vector<tm_var<long>> vars(2048);
  const int a = find_var(vars, [](unsigned, std::size_t) { return true; });
  const unsigned sa = stripe_of(vars[a]);
  const int same = find_var(vars, [&](unsigned s, std::size_t i) {
    return s == sa && static_cast<int>(i) != a;
  });
  const int diff = find_var(vars, [&](unsigned s, std::size_t) {
    return s != sa;
  });
  ASSERT_GE(same, 0);
  ASSERT_GE(diff, 0);

  reset_stats();
  atomic_do([&](TxContext& ctx) {  // two writes, one stripe
    ctx.write(vars[a], 1L);
    ctx.write(vars[same], 1L);
  });
  EXPECT_EQ(aggregate_stats().stripe_bumps, 1u);

  reset_stats();
  atomic_do([&](TxContext& ctx) {  // two writes, two stripes
    ctx.write(vars[a], 2L);
    ctx.write(vars[diff], 2L);
  });
  EXPECT_EQ(aggregate_stats().stripe_bumps, 2u);

  reset_stats();
  atomic_do([&](TxContext& ctx) { (void)ctx.read(vars[a]); });  // read-only
  EXPECT_EQ(aggregate_stats().stripe_bumps, 0u);
}

TEST(StripeAccounting, SingleStripeConfigStaysCorrectUnderContention) {
  ModeGuard mode(ExecMode::Htm);
  config().htm_seq_stripes = 1;
  reset_stats();
  tm_var<long> counter{0};
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  run_threads(kThreads, [&](int) {
    for (int i = 0; i < kIters; ++i)
      atomic_do([&](TxContext& ctx) { ctx.fetch_add(counter, 1L); });
  });
  EXPECT_EQ(counter.unsafe_get(), kThreads * kIters);
  const StatsSnapshot s = aggregate_stats();
  // Every writing commit bumps exactly the one stripe; serial fallbacks
  // (watchdog escalations under extreme schedules) bump none.
  EXPECT_EQ(s.stripe_bumps, s.commits - s.commits_readonly);
}

TEST(StripeAccounting, StripedConfigStaysCorrectUnderContention) {
  ModeGuard mode(ExecMode::Htm);
  config().htm_seq_stripes = 16;
  reset_stats();
  std::vector<tm_var<long>> counters(64);
  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  run_threads(kThreads, [&](int t) {
    for (int i = 0; i < kIters; ++i) {
      const int j = (t * 17 + i * 5) % 64;
      atomic_do([&](TxContext& ctx) { ctx.fetch_add(counters[j], 1L); });
    }
  });
  long total = 0;
  for (auto& c : counters) total += c.unsafe_get();
  EXPECT_EQ(total, kThreads * kIters);
}

// ---------------------------------------------------------------------------
// Subscription policy: the lazy zombie commit vs eager immunity
// ---------------------------------------------------------------------------

/// Drive the Dice et al. interleaving: an HTM reader logs `x`, then a
/// serial writer window updates BOTH `x` and `y` start-to-finish while the
/// reader is still live, then the reader takes its first look at `y`.
struct ZombieResult {
  long r1 = -1;  ///< reader's view of x (logged before the serial window)
  long r2 = -1;  ///< reader's view of y (first read after the window)
};

ZombieResult run_zombie_scenario() {
  tm_var<long> x{0}, y{0}, z{0};
  std::atomic<bool> reader_in{false}, writer_done{false};
  ZombieResult out;
  std::thread writer([&] {
    while (!reader_in.load(std::memory_order_acquire))
      std::this_thread::yield();
    synchronized_do([&](TxContext& ctx) {
      ctx.write(x, 1L);
      ctx.write(y, 1L);
    });
    writer_done.store(true, std::memory_order_release);
  });
  atomic_do([&](TxContext& ctx) {
    out.r1 = ctx.read(x);
    reader_in.store(true, std::memory_order_release);
    while (!writer_done.load(std::memory_order_acquire)) {
      // The poll point: each transactional access checks the fallback lock
      // in eager mode. In lazy mode this read is absorbed by the dedup log
      // and checks nothing — exactly the hazard under test. (In eager mode
      // the spin cannot deadlock the writer: the pending-writer poll below
      // aborts this reader, releasing its read-side hold on the lock.)
      (void)ctx.read(z);
      std::this_thread::yield();
    }
    out.r2 = ctx.read(y);
  });
  writer.join();
  return out;
}

TEST(SubscriptionPolicy, LazyCommitsTheForbiddenMixedSnapshot) {
  ModeGuard mode(ExecMode::Htm);
  config().htm_seq_stripes = 16;
  config().htm_subscription = HtmSubscription::Lazy;
  reset_stats();
  const ZombieResult r = run_zombie_scenario();
  // The zombie: x from before the serial window, y from after it. A single
  // consistent snapshot can only be (0,0) or (1,1).
  EXPECT_EQ(r.r1, 0);
  EXPECT_EQ(r.r2, 1);
  const StatsSnapshot s = aggregate_stats();
  EXPECT_GE(s.lazy_sub_commits, 1u);
  EXPECT_EQ(aborts_of(s, AbortCause::SerialPending), 0u);
}

TEST(SubscriptionPolicy, EagerAbortsTheReaderInsteadOfCommittingIt) {
  ModeGuard mode(ExecMode::Htm);
  config().htm_seq_stripes = 16;
  config().htm_subscription = HtmSubscription::Eager;
  reset_stats();
  const ZombieResult r = run_zombie_scenario();
  // The reader held the fallback lock read-side, so the serial window could
  // not complete inside its transaction: the per-access poll killed the
  // first attempt and the retry saw the whole window's effects.
  EXPECT_EQ(r.r1, 1);
  EXPECT_EQ(r.r2, 1);
  const StatsSnapshot s = aggregate_stats();
  EXPECT_GE(aborts_of(s, AbortCause::SerialPending), 1u);
  EXPECT_EQ(s.lazy_sub_commits, 0u);
}

// ---------------------------------------------------------------------------
// StripeBusy: injectable, budget-free, watchdog-bounded
// ---------------------------------------------------------------------------

TEST(StripeBusy, InjectedCauseDrainsBudgetFreeUntilTheWatchdog) {
  ModeGuard mode(ExecMode::Htm);
  config().htm_seq_stripes = 16;
  // Only the attempt cap may end the drain loop: under a loaded machine
  // (parallel ctest) the wall-clock watchdog leg could fire first and leave
  // fewer than watchdog_max_attempts - 1 StripeBusy aborts.
  config().watchdog_deadline_ns = 0;
  ASSERT_TRUE(fault::install_spec("stripe-busy@commit=1.0", 7));
  reset_stats();
  tm_var<long> v{0};
  atomic_do([&](TxContext& ctx) { ctx.write(v, 5L); });
  fault::clear();
  EXPECT_EQ(v.unsafe_get(), 5);
  const StatsSnapshot s = aggregate_stats();
  // Every speculative attempt died StripeBusy; the drain path retried them
  // without charging the retry budget until the watchdog went serial.
  EXPECT_GE(aborts_of(s, AbortCause::StripeBusy),
            config().watchdog_max_attempts - 1);
  EXPECT_EQ(s.serial_commits, 1u);
  EXPECT_GE(s.gov_watchdog_escalations, 1u);
  EXPECT_EQ(s.gov_drain_timeouts, 0u);  // budget-free: no drain timeouts
}

// ---------------------------------------------------------------------------
// Seeded replay
// ---------------------------------------------------------------------------

/// One deterministic pass of a faulted striped-HTM workload. Single
/// threaded with a pinned stream: the consultation sequence then depends
/// only on the plan, never on scheduling, so two same-seed passes consult
/// identical (stream, hook, n) triples. (A multi-thread pass would not be
/// byte-stable: one organic cross-thread abort shifts a thread's event
/// counters and every later draw with them.)
void run_faulted_workload() {
  tle::reset_stats();
  std::vector<tm_var<long>> vars(32);
  run_threads(1, [&](int) {
    fault::set_thread_stream(1);
    for (int i = 0; i < 400; ++i)
      atomic_do([&](TxContext& ctx) { ctx.fetch_add(vars[(i * 3) % 32], 1L); });
  });
}

TEST(SeededReplay, SameSeedYieldsByteIdenticalInjectionReport) {
  ModeGuard mode(ExecMode::Htm);
  config().htm_seq_stripes = 16;
  const char* spec =
      "stripe-busy@commit=0.05,validation@read=0.02,spurious@commit=0.02";

  ASSERT_TRUE(fault::install_spec(spec, 20260806));
  run_faulted_workload();
  const fault::Counts first = fault::snapshot();
  const std::string first_report = fault::report();

  ASSERT_TRUE(fault::install_spec(spec, 20260806));
  run_faulted_workload();
  const fault::Counts second = fault::snapshot();
  const std::string second_report = fault::report();
  fault::clear();

  EXPECT_GT(first.injected_total(), 0u);
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first_report, second_report);  // byte-identical replay
}

}  // namespace

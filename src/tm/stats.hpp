// Per-thread transaction statistics.
//
// These counters are the evidence stream for the reproduction: Figure 4 and
// the in-text Section VII-A numbers (transaction counts, abort percentages,
// HTM serial-fallback rates) are regenerated from them.
//
// Every scalar counter lives in the TLE_TXSTATS_COUNTERS X-macro below, which
// generates the TxStats members, the StatsSnapshot mirror, reset(),
// aggregation (runtime.cpp), the visitor used by the tle-obs/v1 JSON export,
// and a field-count static_assert — so a counter added in one place cannot
// silently drop out of the snapshot or the dumps.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "tm/config.hpp"

namespace tle {

/// X(name, "description") for every scalar TxStats counter. The per-cause
/// abort array is the one deliberate non-member of this list (it is indexed
/// by AbortCause and handled explicitly wherever the macro is expanded).
#define TLE_TXSTATS_COUNTERS(X)                                             \
  X(txn_starts, "speculative attempts begun")                               \
  X(commits, "speculative commits")                                         \
  X(commits_readonly, "subset of commits with empty write set")             \
  X(serial_fallbacks, "attempts that gave up and went serial")              \
  X(serial_commits, "irrevocable/serial executions completed")              \
  X(lock_sections, "critical sections run under the real lock")             \
  X(quiesce_calls, "post-commit quiescence operations performed")           \
  X(quiesce_waits, "quiescence calls that actually blocked")                \
  X(quiesce_spins, "spin iterations spent waiting in quiescence")           \
  X(quiesce_wait_ns, "nanoseconds spent blocked in quiescence")             \
  X(grace_scans, "grace passes this thread scanned itself")                 \
  X(grace_shared, "quiesces satisfied by another thread's scan")            \
  X(parked_waits, "futex parks after the bounded quiesce spin")             \
  X(limbo_enqueued, "freed blocks deferred to the limbo list")              \
  X(limbo_drained, "limbo blocks released after a grace")                   \
  X(limbo_forced_flush, "drains forced by the limbo size bound")            \
  X(limbo_snapshots, "registry snapshots taken by the limbo epoch poll")    \
  X(noquiesce_requests, "TM_NoQuiesce() invocations")                       \
  X(noquiesce_honored, "commits that skipped quiescence")                   \
  X(noquiesce_ignored_nested, "calls ignored: nested txn (SIV-B)")          \
  X(htm_routed_frees, "engine frees routed to limbo: HTM readers in-flight") \
  X(priv_immediate_frees, "tm_private_free released immediately")           \
  X(priv_limbo_routed, "tm_private_free routed through limbo")              \
  X(tm_allocs, "transactional allocations")                                 \
  X(tm_frees, "transactional frees")                                        \
  X(deferred_run, "deferred actions executed post-commit")                  \
  X(condvar_waits, "transactional condvar waits")                           \
  X(condvar_timeouts, "transactional condvar timed waits that expired")     \
  X(htm_retries, "HTM re-attempts after an abort")                          \
  X(stm_read_dedup, "ml_wt repeat reads absorbed by the filter")            \
  X(htm_read_dedup, "HTM repeat reads served from the value log")           \
  X(htm_rw_hits, "HTM reads served from the write buffer")                  \
  X(stripe_bumps, "commit-sequence stripes acquired by HTM commits")        \
  X(stripe_false_revalidations, "stripe revalidations with no value change") \
  X(lazy_sub_commits, "HTM commits under lazy fallback-lock subscription")  \
  X(faults_injected, "aborts fired by the fault-injection plan")            \
  X(fault_delays, "schedule perturbations executed by the plan")            \
  X(fault_forced_serial, "serial-mode entries forced by the plan")          \
  X(fault_forced_flush, "limbo flushes forced by the plan")                 \
  X(gov_serial_immediate, "aborts escalated straight to serial by policy")  \
  X(gov_backoffs, "aborts handled with randomized exponential backoff")     \
  X(gov_immediate_retries, "aborts retried immediately (spurious policy)")  \
  X(gov_drain_waits, "serial-pending drains awaited without budget burn")   \
  X(gov_drain_timeouts, "drain waits that hit serial_drain_timeout_ns")     \
  X(gov_storm_enters, "abort-storm gate activations")                       \
  X(gov_storm_exits, "abort-storm gate releases")                           \
  X(gov_storm_gated, "speculative attempts held at the storm gate")         \
  X(gov_watchdog_escalations, "starving transactions escalated to serial")  \
  X(gov_stall_events, "quiesce/drain stalls exceeding watchdog_stall_ns")    \
  X(ctl_evals, "adaptive-controller evaluation passes")                     \
  X(ctl_plan_changes, "controller per-site plan changes applied")           \
  X(ctl_forced_serial, "attempts routed serial by a controller plan")       \
  X(ctl_boost_applied, "attempts granted a controller-boosted retry budget") \
  X(ctl_probe_attempts, "recovery-probe attempts re-admitted to speculate")  \
  X(ctl_degraded_enters, "controller degraded-mode entries")                \
  X(ctl_degraded_exits, "controller degraded-mode full recoveries")         \
  X(ctl_mode_switches, "drained global exec-mode switches by the controller") \
  X(ctl_flaps, "probing intervals that re-tripped back to degraded")        \
  X(obs_site_overflow, "TLE_TX_SITE registrations folded into id 0: full")

/// Number of scalar counters in the X-macro (excludes the abort array).
inline constexpr int kTxStatsCounterCount = 0
#define TLE_TXSTATS_COUNT_ONE(name, desc) +1
    TLE_TXSTATS_COUNTERS(TLE_TXSTATS_COUNT_ONE)
#undef TLE_TXSTATS_COUNT_ONE
    ;

inline constexpr int kAbortCauseCount = static_cast<int>(AbortCause::kCount);

/// Counters owned by one thread; incremented with relaxed atomics so an
/// aggregator may read them concurrently without UB.
struct TxStats {
  using Counter = std::atomic<std::uint64_t>;

#define TLE_TXSTATS_DECL(name, desc) Counter name{0};  ///< desc
  TLE_TXSTATS_COUNTERS(TLE_TXSTATS_DECL)
#undef TLE_TXSTATS_DECL

  Counter aborts[kAbortCauseCount] = {};  ///< speculative aborts by cause

  void reset() noexcept {
    auto zero = [](Counter& c) { c.store(0, std::memory_order_relaxed); };
#define TLE_TXSTATS_ZERO(name, desc) zero(name);
    TLE_TXSTATS_COUNTERS(TLE_TXSTATS_ZERO)
#undef TLE_TXSTATS_ZERO
    for (auto& a : aborts) zero(a);
  }

  void bump(Counter& c, std::uint64_t n = 1) noexcept {
    c.fetch_add(n, std::memory_order_relaxed);
  }

  /// Visit every scalar counter as f(name, atomic&); the abort array is not
  /// included. Used by tests to prove aggregation covers every field.
  template <typename F>
  void for_each_counter(F&& f) {
#define TLE_TXSTATS_VISIT(name, desc) f(#name, name);
    TLE_TXSTATS_COUNTERS(TLE_TXSTATS_VISIT)
#undef TLE_TXSTATS_VISIT
  }
};

/// Plain-value aggregate of every live thread's TxStats.
struct StatsSnapshot {
#define TLE_TXSTATS_DECL(name, desc) std::uint64_t name = 0;  ///< desc
  TLE_TXSTATS_COUNTERS(TLE_TXSTATS_DECL)
#undef TLE_TXSTATS_DECL

  std::uint64_t aborts[kAbortCauseCount] = {};

  std::uint64_t aborts_total() const noexcept {
    std::uint64_t t = 0;
    for (auto a : aborts) t += a;
    return t;
  }

  /// Fraction of speculative attempts that aborted (0 when none started).
  double abort_rate() const noexcept {
    return txn_starts ? static_cast<double>(aborts_total()) /
                            static_cast<double>(txn_starts)
                      : 0.0;
  }

  /// Fraction of logical transactions whose final execution was serial.
  double serial_fraction() const noexcept {
    const std::uint64_t logical = commits + serial_commits;
    return logical ? static_cast<double>(serial_commits) /
                         static_cast<double>(logical)
                   : 0.0;
  }

  /// Visit every scalar counter as f(name, value, description); the abort
  /// array is exported separately, keyed by cause name.
  template <typename F>
  void for_each_counter(F&& f) const {
#define TLE_TXSTATS_VISIT(name, desc) f(#name, name, desc);
    TLE_TXSTATS_COUNTERS(TLE_TXSTATS_VISIT)
#undef TLE_TXSTATS_VISIT
  }

  /// Multi-line human-readable report.
  std::string report() const;
};

// A counter added to StatsSnapshot outside the X-macro (or an AbortCause
// added without growing the array) trips this: the snapshot must be exactly
// the macro-generated scalars plus the per-cause abort array.
static_assert(sizeof(StatsSnapshot) ==
                  sizeof(std::uint64_t) *
                      (kTxStatsCounterCount + kAbortCauseCount),
              "StatsSnapshot has fields not generated by "
              "TLE_TXSTATS_COUNTERS; add them to the X-macro so "
              "aggregation and the obs exports stay complete");

/// Sum the counters of every registered thread (safe while threads run; the
/// result is then approximate, exact at barriers).
StatsSnapshot aggregate_stats() noexcept;

/// Zero every registered thread's counters.
void reset_stats() noexcept;

}  // namespace tle

// Global thread registry: one cache-line-padded slot per participating
// thread. The slot carries the three pieces of shared per-thread state the
// runtime needs:
//
//   * the quiescence epoch sequence number (odd = inside a transaction),
//   * the serial ("irrevocability") lock's distributed reader flag,
//   * the statistics counters.
//
// Slots are claimed on a thread's first transactional operation and returned
// when the thread exits, so thread pools and short-lived workers both work.
#pragma once

#include <atomic>
#include <cstdint>

#include "tm/stats.hpp"
#include "util/align.hpp"

namespace tle {

inline constexpr int kMaxThreads = 64;

struct alignas(kCacheLine) ThreadSlot {
  /// Quiescence epoch. Incremented to odd when a transaction begins and to
  /// even when it ends (commit or fully-undone abort). A committing peer
  /// quiesces by waiting for every odd slot to move.
  std::atomic<std::uint64_t> seq{0};

  /// Quiescence domain of the in-flight transaction (ablation A3 only;
  /// always 0 in the paper's erased-lock configuration).
  std::atomic<std::uint32_t> domain{0};

  /// Distributed read-side flag of the serial lock.
  std::atomic<std::uint8_t> sl_reader{0};

  /// Slot ownership (0 free, 1 claimed).
  std::atomic<std::uint8_t> claimed{0};

  /// Count of threads parked (atomic::wait) on one of this slot's words —
  /// `seq` (quiescence stragglers) or `sl_reader` (a draining serial
  /// writer). The exit paths check it so the uncontended case stays a bare
  /// RMW/store with no notify syscall. Shared between the two words: a
  /// spurious notify on the other word costs one wasted syscall on an
  /// already-slow path, while a second counter would widen the slot.
  std::atomic<std::uint32_t> parked{0};

  /// Begin stamp (now_ns) of the in-flight transaction, for the metrics
  /// sampler's oldest-transaction gauge. Valid only while `seq` is odd;
  /// written by the owner on begin/serial-enter and zeroed on exit, and only
  /// while obs::kMetricsBit is set — the dark path never touches it.
  std::atomic<std::uint64_t> txn_begin_ns{0};

  /// Sampler-visible mirror of the owner's TxDesc::limbo.size() (deferred
  /// frees awaiting a grace period). Updated on the limbo enqueue/drain
  /// paths, which are never hot.
  std::atomic<std::uint64_t> limbo_pending{0};

  /// 1 while the in-flight transaction (seq odd) runs in simulated-HTM
  /// mode. Stored relaxed on every epoch enter, program-ordered before the
  /// seq_cst `seq` bump, so any scanner that observes the odd seq also
  /// observes this flag. Consulted by htm_readers_possible(): simulated-HTM
  /// readers validate lazily and can touch freed memory one load after a
  /// privatizing commit, so frees racing them must route through limbo.
  std::atomic<std::uint8_t> htm_active{0};

  TxStats stats;
};

/// The global slot table.
ThreadSlot* slot_table() noexcept;

/// Index of the calling thread's slot, claiming one on first use.
/// Aborts the process if more than kMaxThreads threads participate.
int my_slot_id() noexcept;

/// The calling thread's slot.
ThreadSlot& my_slot() noexcept;

/// Highest slot index ever claimed + 1 (bounds registry scans).
int slot_high_water() noexcept;

/// Shared grace-period state (RCU-style, paper Section IV). A grace pass is
/// one all-domain scan of the registry in snapshot-then-recheck form; pass
/// N completing certifies every quiescence request ticketed <= N, so
/// concurrent committers share one scanner instead of each burning an
/// O(threads) scan. Invariants: started >= completed; started - completed
/// <= 1 (at most one pass in flight, guarded by `scanner`); both are
/// monotone.
struct alignas(kCacheLine) GraceState {
  /// Grace passes begun. A requester's ticket is started+1: any pass with
  /// that number snapshots the registry after the request, hence observes
  /// (and waits out) every transaction the requester could race with.
  std::atomic<std::uint64_t> started{0};

  /// Grace passes finished. Waiters park on this word.
  std::atomic<std::uint64_t> completed{0};

  /// 1 while a pass is scanning (mutual exclusion for the scanner role).
  std::atomic<std::uint32_t> scanner{0};

  /// Threads parked on `completed` — checked before notify_all.
  std::atomic<std::uint32_t> parked{0};

  /// Duration of the most recent grace scan pass and the cumulative scan
  /// time, in nanoseconds. Stamped by the scanner in grace_sync only while
  /// obs::kMetricsBit is set (metrics-sampler gauges; 0 until a metered
  /// pass runs).
  std::atomic<std::uint64_t> last_scan_ns{0};
  std::atomic<std::uint64_t> scan_ns_total{0};
};

GraceState& grace_state() noexcept;

}  // namespace tle

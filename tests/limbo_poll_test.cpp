// The non-blocking limbo poll: a freeing commit that skips quiescence
// leaves its blocks in limbo; once a batch of them is uncertified the poll
// snapshots the registry, and later drains certify the batch by re-reading
// the epochs of the peers that snapshot caught mid-transaction.
//
//   * A deterministic boundary test: below the batch no snapshot is taken
//     and the blocks stay parked; the batch-th free snapshots once and
//     certifies the whole batch; with a peer pinned the batch waits.
//   * A deterministic rendezvous test pins one peer inside a transaction
//     across a batch of removals: the batch must stay put through further
//     commits, must not wait for a peer that began after the snapshot, and
//     must drain on the first commit after the pinned peer exits.
//   * Churn tests (STM list slots, simulated-HTM hash set) where removers
//     free under TM_NoQuiesce while readers hold long transactions, with
//     the forced-flush bound out of reach: under ASan
//     (scripts/run_sanitizers.sh) a premature release is a use-after-free.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "dstruct/tm_hash_set.hpp"
#include "dstruct/tm_list_set.hpp"
#include "test_support.hpp"
#include "tm/fault/fault.hpp"

namespace tle {
namespace {

using testing::FaultPlanOff;
using testing::ModeGuard;
using testing::run_threads;

/// A peer thread held inside one transaction until release().
class PinnedPeer {
 public:
  explicit PinnedPeer(tm_var<long>& cell)
      : t_([this, &cell] {
          atomic_do([&](TxContext& tx) {
            tx.no_quiesce();
            (void)tx.read(cell);
            inside_.store(true, std::memory_order_release);
            while (!release_.load(std::memory_order_acquire))
              std::this_thread::yield();
          });
        }) {
    while (!inside_.load(std::memory_order_acquire))
      std::this_thread::yield();
  }
  ~PinnedPeer() { release(); }

  void release() {
    release_.store(true, std::memory_order_release);
    if (t_.joinable()) t_.join();
  }

 private:
  std::atomic<bool> inside_{false}, release_{false};
  std::thread t_;
};

/// Frees that make the poll take a registry snapshot.
constexpr long kBatch = static_cast<long>(TxDesc::kLimboPollBatch);

/// Frees still parked in this thread's limbo.
std::size_t pending() { return TxDesc::current().limbo.size(); }

TEST(LimboPoll, SnapshotTakenOncePerBatch) {
  FaultPlanOff no_faults;  // forced flushes would drain below the batch
  ModeGuard g(ExecMode::StmCondVarNoQ);
  TmListSet set;
  tm_var<long> cell(0);
  for (long k = 1; k <= 2 * kBatch; ++k) set.insert(k);
  reset_stats();

  // No peer in flight: batch - 1 frees read no registry and stay parked.
  for (long k = 1; k < kBatch; ++k) ASSERT_TRUE(set.remove(k));
  auto s = aggregate_stats();
  EXPECT_EQ(s.limbo_snapshots, 0u) << "snapshot taken below the batch";
  EXPECT_EQ(s.tm_frees, 0u);
  EXPECT_EQ(pending(), static_cast<std::size_t>(kBatch - 1));

  // The batch-th free takes one snapshot, finds nobody in flight and
  // certifies the whole batch.
  ASSERT_TRUE(set.remove(kBatch));
  s = aggregate_stats();
  EXPECT_EQ(s.limbo_snapshots, 1u);
  EXPECT_EQ(s.tm_frees, static_cast<std::uint64_t>(kBatch));
  EXPECT_EQ(pending(), 0u);

  // With a peer pinned, the next batch's snapshot catches it and the batch
  // waits; polling the outstanding snapshot takes no new one.
  auto peer = std::make_unique<PinnedPeer>(cell);
  for (long k = kBatch + 1; k <= 2 * kBatch; ++k) ASSERT_TRUE(set.remove(k));
  for (int i = 0; i < 5; ++i) set.contains(1);
  s = aggregate_stats();
  EXPECT_EQ(s.limbo_snapshots, 2u);
  EXPECT_EQ(s.tm_frees, static_cast<std::uint64_t>(kBatch))
      << "freed under a peer still in its transaction";
  EXPECT_EQ(pending(), static_cast<std::size_t>(kBatch));
  peer->release();
  set.contains(1);
  s = aggregate_stats();
  EXPECT_EQ(s.limbo_snapshots, 2u);
  EXPECT_EQ(s.tm_frees, static_cast<std::uint64_t>(2 * kBatch));
  EXPECT_EQ(pending(), 0u);
  EXPECT_EQ(s.quiesce_calls, 0u);
  EXPECT_EQ(s.limbo_forced_flush, 0u);
}

TEST(LimboPoll, BatchWaitsOnlyForPeersInFlightAtCommit) {
  // Injected aborts would retry the rendezvous away, and forced serial
  // sections or flushes would wait on the pinned peer for ever.
  FaultPlanOff no_faults;
  ModeGuard g(ExecMode::StmCondVarNoQ);
  TmListSet set;
  tm_var<long> cell(0);
  for (long k = 1; k <= 2 * kBatch + 1; ++k) set.insert(k);
  reset_stats();

  // Removes keys [first, first + kBatch): one full batch of frees.
  auto remove_batch = [&](long first) {
    for (long k = first; k < first + kBatch; ++k) ASSERT_TRUE(set.remove(k));
  };

  auto early = std::make_unique<PinnedPeer>(cell);
  remove_batch(1);
  auto s = aggregate_stats();
  EXPECT_EQ(s.quiesce_calls, 0u) << "the freeing commits must not wait";
  EXPECT_EQ(s.limbo_enqueued, static_cast<std::uint64_t>(kBatch));
  EXPECT_EQ(pending(), static_cast<std::size_t>(kBatch));
  for (int i = 0; i < 5; ++i) {
    set.contains(2 * kBatch + 1);
    set.insert(1000 + i);
  }
  s = aggregate_stats();
  EXPECT_EQ(s.tm_frees, 0u) << "freed under a peer still in its transaction";
  EXPECT_EQ(pending(), static_cast<std::size_t>(kBatch));

  // A peer beginning after the snapshot cannot reach the removed nodes.
  auto late = std::make_unique<PinnedPeer>(cell);
  set.contains(2 * kBatch + 1);
  EXPECT_EQ(pending(), static_cast<std::size_t>(kBatch));
  early->release();
  set.contains(2 * kBatch + 1);  // first commit after the pinned peer exits
  s = aggregate_stats();
  EXPECT_EQ(s.tm_frees, static_cast<std::uint64_t>(kBatch))
      << "batch held back by a peer that began later";
  EXPECT_EQ(pending(), 0u);

  // The next batch snapshots afresh and waits for the late peer.
  remove_batch(kBatch + 1);
  set.contains(2 * kBatch + 1);
  EXPECT_EQ(pending(), static_cast<std::size_t>(kBatch));
  late->release();
  set.contains(2 * kBatch + 1);
  s = aggregate_stats();
  EXPECT_EQ(s.tm_frees, static_cast<std::uint64_t>(2 * kBatch));
  EXPECT_EQ(pending(), 0u);
  EXPECT_EQ(s.quiesce_calls, 0u);
  EXPECT_EQ(s.limbo_forced_flush, 0u);
}

struct Node {
  tm_var<long> val;
  explicit Node(long v) noexcept : val(v) {}
};

TEST(LimboPoll, ChurnWithLongReadersReleasesOnlyAfterTheirGrace) {
  ModeGuard g(ExecMode::StmCondVarNoQ);
  config().limbo_max_pending = 1u << 20;  // the poll alone certifies
  reset_stats();

  constexpr int kSlots = 8;
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr long kItersPerWriter = 2000;

  tm_var<Node*> slots[kSlots];
  for (int i = 0; i < kSlots; ++i)
    slots[i].unsafe_set(::new (::operator new(sizeof(Node))) Node(0));
  std::atomic<int> writers_done{0};

  run_threads(kWriters + kReaders, [&](int id) {
    if (id < kWriters) {
      for (long it = 0; it < kItersPerWriter; ++it) {
        atomic_do([&](TxContext& tx) {
          tx.no_quiesce();
          const int s = static_cast<int>((id + it) % kSlots);
          Node* old = tx.read(slots[s]);
          tx.write(slots[s], tx.create<Node>(it));
          tx.destroy(old);
        });
      }
      writers_done.fetch_add(1);
    } else {
      while (writers_done.load(std::memory_order_acquire) < kWriters) {
        atomic_do([&](TxContext& tx) {
          tx.no_quiesce();
          long sum = 0;
          for (int round = 0; round < 4; ++round)
            for (int s = 0; s < kSlots; ++s)
              sum += tx.read(tx.read(slots[s])->val);  // UAF if released early
          EXPECT_GE(sum, 0);
        });
      }
    }
  });

  const auto s = aggregate_stats();
  const auto total = static_cast<std::uint64_t>(kWriters * kItersPerWriter);
  EXPECT_EQ(s.tm_frees, total);
  EXPECT_EQ(s.limbo_drained, s.limbo_enqueued)
      << "thread exit must flush every limbo batch";
  EXPECT_EQ(s.quiesce_calls, 0u);

  for (int i = 0; i < kSlots; ++i) ::operator delete(slots[i].unsafe_get());
}

TEST(LimboPoll, ChurnWithLongHtmReadersReleasesOnlyAfterTheirGrace) {
  // The simulated-HTM twin: removers free hash-set nodes under
  // TM_NoQuiesce while readers walk long chains in one lazily-validating
  // transaction, with spurious aborts driving attempts into serial
  // sections. Limbo's size bound is out of reach, so only the poll, serial
  // exits and thread exit release nodes; an early release is a
  // use-after-free under ASan.
  ModeGuard g(ExecMode::Htm);
  config().htm_spurious_abort_rate = 0.4;
  // Every serial exit certifies the section owner's whole limbo (the
  // fallback lock drained all HTM readers), so at the default retry budget
  // writers rarely build a batch; a deeper budget leaves the poll to do it.
  config().htm_max_retries = 16;
  config().limbo_max_pending = 1u << 20;
  reset_stats();

  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr long kKeys = 64;
  constexpr long kRounds = 60;

  TmHashSet set(2);  // two long chains: readers cross the churned nodes
  std::atomic<int> readers_in{0}, writers_done{0};
  std::atomic<std::uint64_t> removed{0};

  run_threads(kWriters + kReaders, [&](int id) {
    if (id < kWriters) {
      while (readers_in.load(std::memory_order_acquire) < kReaders)
        std::this_thread::yield();
      for (long round = 0; round < kRounds; ++round) {
        for (long k = id; k < kKeys; k += kWriters) set.insert(k);
        for (long k = id; k < kKeys; k += kWriters)
          if (set.remove(k)) removed.fetch_add(1);
      }
      writers_done.fetch_add(1);
    } else {
      readers_in.fetch_add(1, std::memory_order_release);
      while (writers_done.load(std::memory_order_acquire) < kWriters) {
        atomic_do([&](TxContext&) {
          for (long k = kKeys - 4; k < kKeys; ++k) set.contains(k);  // flat
        });
      }
    }
  });

  const auto s = aggregate_stats();
  EXPECT_EQ(s.tm_frees, removed.load());
  EXPECT_EQ(s.limbo_drained, s.limbo_enqueued)
      << "thread exit must flush every limbo batch";
  EXPECT_EQ(s.quiesce_calls, 0u);
  if (!fault::active())
    EXPECT_GT(s.limbo_snapshots, 0u) << "the epoch poll never certified";
}

}  // namespace
}  // namespace tle

// The non-blocking limbo poll: a freeing commit that skips quiescence
// leaves its batch in limbo, and later drains certify it by re-reading the
// epochs of the peers the post-commit snapshot caught mid-transaction.
//
//   * A deterministic rendezvous test pins one peer inside a transaction
//     across a removal: the batch must stay put through further commits,
//     must not wait for a peer that began after the snapshot, and must
//     drain on the first commit after the pinned peer exits.
//   * A churn test where removers free under TM_NoQuiesce while readers
//     hold long transactions in the same domain, with the forced-flush
//     bound out of reach: only the poll certifies, so under ASan
//     (scripts/run_sanitizers.sh) a premature release is a use-after-free.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "dstruct/tm_list_set.hpp"
#include "test_support.hpp"
#include "tm/fault/fault.hpp"

namespace tle {
namespace {

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

/// Frees still parked in this thread's limbo.
std::size_t pending() { return TxDesc::current().limbo.size(); }

/// Disarms any env-armed fault plan for one test and re-arms it after.
struct FaultPlanOff {
  FaultPlanOff() { fault::clear(); }
  ~FaultPlanOff() { fault::init_from_env(); }
};

TEST(LimboPoll, BatchWaitsOnlyForPeersInFlightAtCommit) {
  // Injected aborts would retry the rendezvous away, and forced serial
  // sections or flushes would wait on the pinned peer for ever.
  FaultPlanOff no_faults;
  ModeGuard g(ExecMode::StmCondVarNoQ);
  TmListSet set;
  tm_var<long> cell(0);
  for (long k = 1; k <= 4; ++k) set.insert(k);
  reset_stats();

  auto early = std::make_unique<PinnedPeer>(cell);
  ASSERT_TRUE(set.remove(1));
  auto s = aggregate_stats();
  EXPECT_EQ(s.quiesce_calls, 0u) << "the freeing commit must not wait";
  EXPECT_EQ(s.limbo_enqueued, 1u);
  EXPECT_EQ(pending(), 1u);
  for (int i = 0; i < 5; ++i) {
    set.contains(2);
    set.insert(10 + i);
  }
  s = aggregate_stats();
  EXPECT_EQ(s.tm_frees, 0u) << "freed under a peer still in its transaction";
  EXPECT_EQ(pending(), 1u);

  // A peer beginning after the snapshot cannot reach the removed node.
  auto late = std::make_unique<PinnedPeer>(cell);
  set.contains(2);
  EXPECT_EQ(pending(), 1u);
  early->release();
  set.contains(2);  // first commit after the pinned peer exits
  s = aggregate_stats();
  EXPECT_EQ(s.tm_frees, 1u) << "batch held back by a peer that began later";
  EXPECT_EQ(pending(), 0u);

  // The next batch snapshots afresh and waits for the late peer.
  ASSERT_TRUE(set.remove(2));
  set.contains(3);
  EXPECT_EQ(pending(), 1u);
  late->release();
  set.contains(3);
  s = aggregate_stats();
  EXPECT_EQ(s.tm_frees, 2u);
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

}  // namespace
}  // namespace tle

// ml_wt commit protocol: encounter-time orec write locks, write-through with
// an undo log, TinySTM-style global-clock snapshots with timestamp extension
// (GCC libitm's default method group — the algorithm the paper's STM numbers
// use). One instance of the StmProtocol seam (protocol.hpp).
#pragma once

#include "tm/protocol/detail.hpp"
#include "tm/serial_lock.hpp"
#include "util/align.hpp"

namespace tle::protocol {

struct MlWt {
  static constexpr StmAlgo kAlgo = StmAlgo::MlWt;

  /// Read-set validation. Aborts on any orec whose unlocked value changed or
  /// that is now owned by another transaction. An orec we ourselves own is
  /// valid iff the pre-lock value we stashed matches what the read observed.
  static void validate(TxDesc& tx) {
    for (const ReadEntry& r : tx.reads) {
      const std::uint64_t cur = r.orec->load(std::memory_order_acquire);
      if (cur == r.seen) continue;
      if (orec_locked(cur) && orec_owner(cur) == &tx) {
        const std::uint32_t i = tx.owned_idx.find(r.orec);
        if (i != AddrIndex::kNone && tx.owned[i].prev == r.seen) continue;
      }
      tx_abort(tx, AbortCause::Validation);
    }
  }

  /// TinySTM timestamp extension: adopt the current clock if the read set is
  /// still valid; abort otherwise.
  static void extend(TxDesc& tx) {
    const std::uint64_t now = gclock().load(std::memory_order_acquire);
    validate(tx);
    tx.rv = now;
  }

  static void begin(TxDesc& tx) {
    tx.rv = gclock().load(std::memory_order_acquire);
  }

  static std::uint64_t read(TxDesc& tx,
                            const std::atomic<std::uint64_t>& cell) {
    if (serial_lock().serial_requested())
      tx_abort(tx, AbortCause::SerialPending);
    std::atomic<std::uint64_t>& o = orec_for(&cell);
    for (unsigned spin = 0;;) {
      const std::uint64_t ov = o.load(std::memory_order_acquire);
      if (orec_locked(ov)) {
        if (orec_owner(ov) == &tx) {
          // Read-own-write: write-through means memory holds the new value.
          return cell.load(std::memory_order_relaxed);
        }
        tx_abort(tx, AbortCause::Conflict);
      }
      if (orec_timestamp(ov) > tx.rv) {
        extend(tx);
        continue;  // re-read under the extended snapshot
      }
      const std::uint64_t val = cell.load(std::memory_order_acquire);
      if (o.load(std::memory_order_acquire) != ov) {
        spin_pause(spin++);
        continue;  // concurrent lock/release between our two orec loads
      }
      // Repeat-read filter: a second read of an orec already logged with the
      // SAME observed value adds no information — validation of the first
      // entry covers it. A differing observation is still appended (superset
      // validation), so abort outcomes are unchanged.
      const std::uint32_t prior = tx.read_idx.find(&o);
      if (prior != AddrIndex::kNone && tx.reads[prior].seen == ov) {
        detail::st(tx).bump(detail::st(tx).stm_read_dedup);
        return val;
      }
      tx.read_idx.insert(&o, static_cast<std::uint32_t>(tx.reads.size()));
      tx.reads.push_back({&o, ov});
      return val;
    }
  }

  static void write(TxDesc& tx, std::atomic<std::uint64_t>& cell,
                    std::uint64_t value) {
    if (serial_lock().serial_requested())
      tx_abort(tx, AbortCause::SerialPending);
    std::atomic<std::uint64_t>& o = orec_for(&cell);
    for (;;) {
      const std::uint64_t ov = o.load(std::memory_order_acquire);
      if (orec_locked(ov)) {
        if (orec_owner(ov) != &tx) tx_abort(tx, AbortCause::Conflict);
        break;  // already own it
      }
      if (orec_timestamp(ov) > tx.rv) {
        extend(tx);
        continue;
      }
      std::uint64_t expected = ov;
      if (o.compare_exchange_strong(expected, orec_lockword(&tx),
                                    std::memory_order_acq_rel)) {
        tx.owned_idx.insert(&o, static_cast<std::uint32_t>(tx.owned.size()));
        tx.owned.push_back({&o, ov});
        break;
      }
      // Lost the race; loop re-examines the new value.
    }
    tx.undo.push_back({&cell, cell.load(std::memory_order_relaxed)});
    cell.store(value, std::memory_order_relaxed);
    tx.read_only = false;
  }

  static void commit(TxDesc& tx) {
    if (tx.read_only) return;
    const std::uint64_t wv =
        gclock().fetch_add(1, std::memory_order_acq_rel) + 1;
    // If nobody committed since we started, the read set is trivially valid.
    if (wv != tx.rv + 1) validate(tx);
    for (const OwnedOrec& o : tx.owned)
      o.orec->store(orec_commit_release(o.prev, wv),
                    std::memory_order_release);
  }

  static void rollback(TxDesc& tx) noexcept {
    // Undo in reverse so multiply-written words regain their oldest value.
    for (auto it = tx.undo.rbegin(); it != tx.undo.rend(); ++it)
      it->addr->store(it->old, std::memory_order_relaxed);
    // The release on the orec publishes the restored values; the incarnation
    // bump invalidates readers racing with our speculation.
    for (const OwnedOrec& o : tx.owned)
      o.orec->store(orec_abort_release(o.prev), std::memory_order_release);
  }
};

}  // namespace tle::protocol

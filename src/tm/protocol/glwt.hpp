// gl_wt commit protocol: one global versioned lock, write-through
// (TML-style). Even value = version; odd = a writer is active. Reads are a
// load plus one global-word validation; the first write acquires the global
// lock, so writing transactions serialize (GCC's gl_wt method group). One
// instance of the StmProtocol seam (protocol.hpp).
#pragma once

#include "tm/protocol/detail.hpp"
#include "tm/serial_lock.hpp"
#include "util/align.hpp"

namespace tle::protocol {

struct GlWt {
  static constexpr StmAlgo kAlgo = StmAlgo::GlWt;

  static void begin(TxDesc& tx) {
    unsigned spin = 0;
    for (;;) {
      const std::uint64_t v = gl_lock().load(std::memory_order_acquire);
      if (!(v & 1)) {
        tx.rv = v;
        tx.gl_writer = false;
        return;
      }
      spin_pause(spin++);
    }
  }

  static std::uint64_t read(TxDesc& tx,
                            const std::atomic<std::uint64_t>& cell) {
    if (serial_lock().serial_requested())
      tx_abort(tx, AbortCause::SerialPending);
    if (tx.gl_writer) return cell.load(std::memory_order_relaxed);
    const std::uint64_t val = cell.load(std::memory_order_acquire);
    if (gl_lock().load(std::memory_order_acquire) != tx.rv)
      tx_abort(tx, AbortCause::Validation);
    return val;
  }

  static void write(TxDesc& tx, std::atomic<std::uint64_t>& cell,
                    std::uint64_t value) {
    if (serial_lock().serial_requested())
      tx_abort(tx, AbortCause::SerialPending);
    if (!tx.gl_writer) {
      std::uint64_t expected = tx.rv;
      if (!gl_lock().compare_exchange_strong(expected, tx.rv + 1,
                                             std::memory_order_acq_rel))
        tx_abort(tx, AbortCause::Conflict);
      tx.gl_writer = true;
    }
    tx.undo.push_back({&cell, cell.load(std::memory_order_relaxed)});
    cell.store(value, std::memory_order_relaxed);
    tx.read_only = false;
  }

  static void commit(TxDesc& tx) {
    if (tx.gl_writer) {
      gl_lock().store(tx.rv + 2, std::memory_order_release);
      tx.gl_writer = false;
    }
  }

  static void rollback(TxDesc& tx) noexcept {
    for (auto it = tx.undo.rbegin(); it != tx.undo.rend(); ++it)
      it->addr->store(it->old, std::memory_order_relaxed);
    if (tx.gl_writer) {
      // Bump the version so concurrent readers that saw speculative values
      // fail their per-read validation.
      gl_lock().store(tx.rv + 2, std::memory_order_release);
      tx.gl_writer = false;
    }
  }
};

}  // namespace tle::protocol

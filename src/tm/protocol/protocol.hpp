// The StmProtocol seam: compile-time commit-protocol policies for the STM
// slow path.
//
// Contract. A policy is a stateless struct of static members operating on the
// per-thread TxDesc; the engine (engine.cpp) owns everything OUTSIDE the
// protocol — slot/epoch lifecycle, quiescence and limbo reclamation, serial
// fallback, the governor's retry dispatch, stats aggregation and the flight
// recorder — and calls into the policy at five points:
//
//   static constexpr StmAlgo kAlgo;        // the enumerator it implements
//   static void begin(TxDesc&);            // snapshot/setup after clear_logs
//   static std::uint64_t read(TxDesc&, const std::atomic<std::uint64_t>&);
//   static void write(TxDesc&, std::atomic<std::uint64_t>&, std::uint64_t);
//   static void commit(TxDesc&);           // publish or abort (via tx_abort)
//   static void rollback(TxDesc&) noexcept;  // undo + release; longjmp-safe
//
// Obligations on a policy:
//   * abort only via tx_abort(tx, cause) with an honest AbortCause — the
//     governor's cause dispatch and the obs per-cause rows depend on it;
//   * rollback() must be safe at ANY point read/write/commit can abort, and
//     must leave shared memory exactly as if the attempt never ran (it also
//     runs on the exception path);
//   * route fault hooks through protocol::detail::maybe_inject/maybe_perturb
//     so deterministic replay stays byte-identical;
//   * never block unboundedly while holding shared state a peer can wait on
//     (bounded waits + Conflict abort keep the governor in charge).
//
// Dispatch is a compare chain over the algo byte into a generic lambda —
// every policy body is statically known at each call site and inlines; there
// is no vtable and no function pointer anywhere on the read/write path. The
// default protocol (ml_wt) is deliberately the fallthrough arm so its inlined
// body sits on the straight-line path of tx_read_word/tx_write_word. Adding a
// protocol = one header with the six members, one enumerator in StmAlgo,
// one branch below, one line in to_string/parse — the engine does not change.
#pragma once

#include "tm/protocol/glwt.hpp"
#include "tm/protocol/mlwt.hpp"

namespace tle::protocol {

template <typename F>
decltype(auto) stm_protocol_dispatch(StmAlgo algo, F&& f) {
  if (algo == StmAlgo::GlWt) return f(GlWt{});
  return f(MlWt{});
}

}  // namespace tle::protocol

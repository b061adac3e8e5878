// Shared helpers for the test suites.
#pragma once

#include <functional>
#include <thread>
#include <vector>

#include "tm/fault/fault.hpp"
#include "tm/tm.hpp"

namespace tle::testing {

/// RAII mode switch: sets the paper-style ExecMode and restores the previous
/// configuration on scope exit. Must not be used while transactions run.
class ModeGuard {
 public:
  explicit ModeGuard(ExecMode m) : saved_(config()) { set_exec_mode(m); }
  ModeGuard(ExecMode m, QuiescePolicy q, bool honor_noq) : saved_(config()) {
    set_exec_mode(m);
    config().quiesce = q;
    config().honor_noquiesce = honor_noq;
  }
  ~ModeGuard() { config() = saved_; }

  ModeGuard(const ModeGuard&) = delete;
  ModeGuard& operator=(const ModeGuard&) = delete;

 private:
  RuntimeConfig saved_;
};

/// Disarms any env-armed fault plan for one test and re-arms it after:
/// for tests that pin an interleaving (injected aborts would retry it away)
/// or count limbo drains (forced flushes would drain early).
struct FaultPlanOff {
  FaultPlanOff() { fault::clear(); }
  ~FaultPlanOff() { fault::init_from_env(); }
};

/// Run `fn(thread_index)` on `n` threads and join them all.
inline void run_threads(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> ts;
  ts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ts.emplace_back(fn, i);
  for (auto& t : ts) t.join();
}

/// Every execution mode the paper evaluates.
inline const ExecMode kAllModes[] = {
    ExecMode::Lock, ExecMode::StmSpin, ExecMode::StmCondVar,
    ExecMode::StmCondVarNoQ, ExecMode::Htm};

/// The speculative (elided) modes only.
inline const ExecMode kElisionModes[] = {
    ExecMode::StmSpin, ExecMode::StmCondVar, ExecMode::StmCondVarNoQ,
    ExecMode::Htm};

}  // namespace tle::testing

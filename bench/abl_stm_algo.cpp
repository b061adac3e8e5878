// Ablation A4 — commit-protocol shoot-out across the StmProtocol seam:
// ml_wt (encounter-time orec locks, the paper's algorithm) against gl_wt
// (GCC's global-versioned-lock group).
//
// Three mixes, chosen to expose the structural differences rather than to
// flatter either protocol:
//
//  1. read_mostly — every transaction reads a few HOT cells plus a long
//     tail of cold data; one in eight also increments a hot cell FIRST.
//     Under ml_wt that writer holds the hot orec's encounter lock across
//     its whole read tail, conflict-aborting every concurrent reader of the
//     cell; under gl_wt each read validates one global word, and any commit
//     aborts every in-flight reader.
//
//  2. write_heavy — every transaction increments half the hot set: dense
//     write-write conflict, which ml_wt detects at encounter time per orec
//     and gl_wt avoids by serializing every writer on its one lock.
//
//  3. long_reader — one thread repeatedly sums a large block while the
//     rest increment random cells in it. The block sum is monotone
//     nondecreasing under increments, so each scan self-checks snapshot
//     consistency (a torn/zombie snapshot can go backwards); the cell
//     reports how each protocol's validation machinery (clock extension vs
//     global-lock retry) carries a big footprint through writer churn.
//
// Emits BENCH_stm_algo.json (schema "tle-stm-algo/v1", ingested by
// scripts/summarize_bench.py):
//
//   {
//     "schema": "tle-stm-algo/v1",
//     "secs_per_cell": <double>,
//     "cells": [                        // algo x mix x threads
//       { "algo": "ml_wt|gl_wt", "mix": "<name>",
//         "threads": <int>, "txns": <uint>,
//         "commits_per_sec": <double>, "total_txns_per_sec": <double>,
//         "aborts_conflict": <uint>, "aborts_validation": <uint>,
//         "serial_pct": <double> }, ... ]
//   }
//
// Every run self-checks pool sums and long-reader snapshots and exits
// nonzero on a violation; no throughput ratio is enforced. `--smoke` runs
// one tiny cell per algo x mix at 2 threads and is wired into the tier-1
// ctest suite; the full run sweeps 1/2/4/8 threads.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "tm/governor/governor.hpp"
#include "tm/obs/metrics.hpp"
#include "util/barrier.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"

namespace {

using namespace tle;
using namespace tle::bench;

std::atomic<std::uint64_t> g_check_failures{0};

void check(bool ok, const char* what) {
  if (!ok) {
    g_check_failures.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "abl_stm_algo: CHECK FAILED: %s\n", what);
  }
}

enum class Mix { ReadMostly, WriteHeavy, LongReader };

const char* mix_name(Mix m) {
  switch (m) {
    case Mix::ReadMostly: return "read_mostly";
    case Mix::WriteHeavy: return "write_heavy";
    case Mix::LongReader: return "long_reader";
  }
  return "?";
}

constexpr std::size_t kHot = 8;     // contended cells
constexpr std::size_t kData = 512;  // cold tail / long-reader block
constexpr std::size_t kTail = 28;   // cold reads per read_mostly txn

struct AlgoResult {
  StmAlgo algo = StmAlgo::MlWt;
  Mix mix = Mix::ReadMostly;
  int threads = 0;
  double secs = 0;
  std::uint64_t txns = 0;
  StatsSnapshot stats;

  /// Speculative commits/s — serial fallbacks are excluded on purpose: the
  /// shoot-out compares the protocols, not the serial escape hatch.
  double commits_per_sec() const {
    return secs > 0 ? static_cast<double>(stats.commits) / secs : 0;
  }
  double total_txns_per_sec() const {
    return secs > 0 ? static_cast<double>(txns) / secs : 0;
  }
};

AlgoResult run_algo_cell(StmAlgo algo, Mix mix, int threads, double secs) {
  set_exec_mode(ExecMode::StmCondVar);
  config().stm_algo = algo;
  reset_stats();
  gov::reset();

  std::vector<tm_var<long>> hot(kHot);
  std::vector<tm_var<long>> data(kData);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0}, adds{0};
  std::atomic<std::uint64_t> torn{0};
  SpinBarrier gate(static_cast<std::size_t>(threads) + 1);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(0xA19 + static_cast<std::uint64_t>(t) * 7919);
      gate.arrive_and_wait();
      std::uint64_t local = 0, local_adds = 0;
      long floor = 0;  // long_reader: last committed block sum
      while (!stop.load(std::memory_order_relaxed)) {
        switch (mix) {
          case Mix::ReadMostly: {
            // Write FIRST so ml_wt's encounter lock spans the read tail.
            const bool writer = rng.below(8) == 0;
            const std::size_t w = rng.below(kHot);
            long sink = 0;
            atomic_do([&](TxContext& tx) {
              sink = 0;
              if (writer) tx.fetch_add(hot[w], 1L);
              for (std::size_t i = 0; i < 4; ++i)
                sink += tx.read(hot[(w + 1 + i) % kHot]);
              for (std::size_t i = 0; i < kTail; ++i)
                sink += tx.read(data[rng.below(kData)]);
            });
            if (writer) ++local_adds;
            break;
          }
          case Mix::WriteHeavy: {
            const std::size_t base = rng.below(kHot);
            atomic_do([&](TxContext& tx) {
              for (std::size_t i = 0; i < kHot / 2; ++i)
                tx.fetch_add(hot[(base + i) % kHot], 1L);
            });
            local_adds += kHot / 2;
            break;
          }
          case Mix::LongReader: {
            if (t == 0) {
              long sum = 0;
              atomic_do([&](TxContext& tx) {
                sum = 0;
                for (auto& d : data) sum += tx.read(d);
              });
              // Cells only ever grow: a committed scan whose sum went
              // backwards read a torn snapshot.
              if (sum < floor) torn.fetch_add(1, std::memory_order_relaxed);
              floor = sum;
            } else {
              const std::size_t w = rng.below(kData);
              atomic_do([&](TxContext& tx) { tx.fetch_add(data[w], 1L); });
              ++local_adds;
            }
            break;
          }
        }
        ++local;
      }
      ops.fetch_add(local);
      adds.fetch_add(local_adds);
    });
  }
  Stopwatch sw;
  gate.arrive_and_wait();
  while (sw.seconds() < secs) std::this_thread::yield();
  stop.store(true);
  const double measured = sw.seconds();
  for (auto& w : workers) w.join();

  AlgoResult r;
  r.algo = algo;
  r.mix = mix;
  r.threads = threads;
  r.secs = measured;
  r.txns = ops.load();
  r.stats = aggregate_stats();
  check(r.txns > 0, "algo cell made progress");

  // Every committed increment landed exactly once, whatever the protocol.
  long long sum = 0;
  for (auto& v : hot)
    sum += static_cast<long>(v.raw().load(std::memory_order_relaxed));
  for (auto& v : data)
    sum += static_cast<long>(v.raw().load(std::memory_order_relaxed));
  check(static_cast<std::uint64_t>(sum) == adds.load(),
        "pool sum equals committed increments");
  check(torn.load() == 0, "long-reader snapshots are never torn");

  config().stm_algo = StmAlgo::MlWt;
  set_exec_mode(ExecMode::Lock);
  return r;
}

void emit_json(const char* path, const std::vector<AlgoResult>& cells,
               double secs) {
  JsonWriter j;
  j.begin_obj();
  j.kv("schema", "tle-stm-algo/v1");
  j.kv("secs_per_cell", secs);
  j.key("cells");
  j.begin_arr();
  for (const AlgoResult& c : cells) {
    j.begin_obj();
    j.kv("algo", to_string(c.algo));
    j.kv("mix", mix_name(c.mix));
    j.kv("threads", static_cast<std::uint64_t>(c.threads));
    j.kv("txns", c.txns);
    j.kv("commits_per_sec", c.commits_per_sec());
    j.kv("total_txns_per_sec", c.total_txns_per_sec());
    j.kv("aborts_conflict",
         c.stats.aborts[static_cast<int>(AbortCause::Conflict)]);
    j.kv("aborts_validation",
         c.stats.aborts[static_cast<int>(AbortCause::Validation)]);
    j.kv("serial_pct", 100.0 * c.stats.serial_fraction());
    j.end_obj();
  }
  j.end_arr();
  j.end_obj();

  if (!j.write_file(path)) {
    std::fprintf(stderr, "abl_stm_algo: cannot write %s\n", path);
    g_check_failures.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out = "BENCH_stm_algo.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      out = argv[i];
  }
  const double secs = env_double("ABL_STM_ALGO_SECS", smoke ? 0.05 : 1.0);

  // ABL_METRICS=1 arms the interval sampler for the run (same knob as
  // abl_overhead), so algorithm sweeps can stream tle-metrics/v1 windows.
  if (env_long("ABL_METRICS", 0)) {
    obs::metrics_start();
    std::printf("abl_stm_algo: interval metrics sampler ON (period=%u ms)\n",
                config().metrics_period_ms);
  }

  const StmAlgo algos[] = {StmAlgo::MlWt, StmAlgo::GlWt};
  const Mix mixes[] = {Mix::ReadMostly, Mix::WriteHeavy, Mix::LongReader};
  std::vector<AlgoResult> cells;
  for (StmAlgo algo : algos)
    for (Mix mix : mixes) {
      if (smoke) {
        cells.push_back(run_algo_cell(algo, mix, 2, secs));
      } else {
        for (int t : {1, 2, 4, 8})
          cells.push_back(run_algo_cell(algo, mix, t, secs));
      }
    }

  std::printf("%-7s %-12s %8s %14s %14s %10s %10s %8s\n", "algo", "mix",
              "threads", "commits/s", "total/s", "conflict", "validate",
              "serial%");
  for (const AlgoResult& c : cells)
    std::printf(
        "%-7s %-12s %8d %14.0f %14.0f %10llu %10llu %7.2f%%\n",
        to_string(c.algo), mix_name(c.mix), c.threads, c.commits_per_sec(),
        c.total_txns_per_sec(),
        static_cast<unsigned long long>(
            c.stats.aborts[static_cast<int>(AbortCause::Conflict)]),
        static_cast<unsigned long long>(
            c.stats.aborts[static_cast<int>(AbortCause::Validation)]),
        100.0 * c.stats.serial_fraction());

  emit_json(out, cells, secs);
  std::printf("wrote %s\n", out);

  const auto failures = g_check_failures.load();
  if (failures) {
    std::fprintf(stderr, "abl_stm_algo: %llu check failure(s)\n",
                 static_cast<unsigned long long>(failures));
    return 1;
  }
  return 0;
}

// Figure 5 reproduction: data-structure microbenchmarks under three
// quiescence regimes —
//   STM        : quiesce after every transaction (GCC >= 2016 default),
//   NoQ        : no transaction quiesces (unsafe in general); frees still
//                wait out a grace period in limbo before the allocator
//                gets them back,
//   SelectNoQ  : the paper's TM_NoQuiesce — every set operation requests
//                the skip. Unlike the paper's libitm, freeing removals are
//                honoured too: their nodes wait in limbo, so this regime
//                quiesces no more than NoQ.
//
// Structures/keyspaces are the paper's: list with 6-bit keys, hash and
// red-black tree with 8-bit keys, initialized 50% full. Two mixes per
// structure: 50/50 insert/remove, and 50% lookup + 25/25 insert/remove.
// Trials are timed (MICRO_SECS, default 0.3 s each; the paper used 10 s).
//
// Benchmark name format: fig5/<struct>/<mix>/threads:<N>/<regime>
#include <benchmark/benchmark.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "dstruct/tm_hash_set.hpp"
#include "dstruct/tm_list_set.hpp"
#include "dstruct/tm_rbtree_set.hpp"
#include "dstruct/tm_skiplist_set.hpp"
#include "util/barrier.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"

namespace {

using namespace tle;
using namespace tle::bench;

struct Regime {
  const char* name;
  QuiescePolicy policy;
  bool honor_noquiesce;
};

const Regime kRegimes[] = {
    {"STM", QuiescePolicy::Always, false},
    {"NoQ", QuiescePolicy::Never, false},
    {"SelectNoQ", QuiescePolicy::Always, true},
};

const double kTrialSecs = env_double("MICRO_SECS", 0.3);

template <typename SetT>
void run_case(benchmark::State& state, long keyspace, int lookup_pct,
              int threads, const Regime& regime) {
  set_exec_mode(ExecMode::StmCondVar);
  config().quiesce = regime.policy;
  config().honor_noquiesce = regime.honor_noquiesce;

  for (auto _ : state) {
    SetT set;
    for (long k = 0; k < keyspace; k += 2) set.insert(k);  // 50% full
    reset_stats();

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> ops{0};
    SpinBarrier gate(static_cast<std::size_t>(threads) + 1);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        Xoshiro256 rng(9000 + static_cast<unsigned>(t));
        gate.arrive_and_wait();
        std::uint64_t local = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const long key =
              static_cast<long>(rng.below(static_cast<std::uint64_t>(keyspace)));
          const int dice = static_cast<int>(rng.below(100));
          if (dice < lookup_pct) {
            benchmark::DoNotOptimize(set.contains(key));
          } else if (dice < lookup_pct + (100 - lookup_pct) / 2) {
            benchmark::DoNotOptimize(set.insert(key));
          } else {
            benchmark::DoNotOptimize(set.remove(key));
          }
          ++local;
        }
        ops.fetch_add(local, std::memory_order_relaxed);
      });
    }
    Stopwatch sw;
    gate.arrive_and_wait();
    while (sw.seconds() < kTrialSecs) std::this_thread::yield();
    stop.store(true);
    for (auto& w : workers) w.join();

    state.SetIterationTime(sw.seconds());
    state.counters["ops_per_sec"] = static_cast<double>(ops.load()) / sw.seconds();
  }
  attach_tm_counters(state, aggregate_stats());
  set_exec_mode(ExecMode::Lock);
}

template <typename SetT>
void register_structure(const char* sname, long keyspace) {
  struct Mix {
    const char* name;
    int lookup_pct;
  };
  const Mix mixes[] = {{"ins50rem50", 0}, {"lookup50", 50}};
  for (const Mix& mix : mixes) {
    for (int threads : {1, 2, 4, 8}) {
      for (const Regime& regime : kRegimes) {
        const std::string name = std::string("fig5/") + sname + "/" +
                                 mix.name + "/threads:" +
                                 std::to_string(threads) + "/" + regime.name;
        const int lookup_pct = mix.lookup_pct;
        const Regime reg = regime;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [keyspace, lookup_pct, threads, reg](benchmark::State& st) {
              run_case<SetT>(st, keyspace, lookup_pct, threads, reg);
            })
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1)
            ->UseManualTime();
      }
    }
  }
}

void register_all() {
  register_structure<TmListSet>("list", 64);      // 6-bit keys
  register_structure<TmHashSet>("hash", 256);     // 8-bit keys
  register_structure<TmRbTreeSet>("tree", 256);   // 8-bit keys
  // Extension series (not in the paper): a fourth classic TM structure.
  register_structure<TmSkipListSet>("fig5x-skiplist", 256);
}

const int dummy = (register_all(), 0);

}  // namespace

BENCHMARK_MAIN();

// perfbench — the repository benchmark program (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--sha <git sha>] [--inject <fault>]
//   perfbench --selftest
//
// Each workload is a closed loop: every client issues its next operation
// only after the previous one returned, and times it from outside the call.
// The measured phase is cut into kSlices equal slices; each end-to-end
// figure is the median over slices of that slice's value, so a short burst
// of outside interference moves one slice, not the result.
//
// --trace 0 prints the end-to-end metrics. --trace 1 traces every other
// slice and prints the per-layer metrics: per-op-type latency of the calls
// in the traced slices, counter deltas from tle::aggregate_stats() over the
// phase, and single-threaded codec timings.
// Interleaving traced and untraced slices keeps drift of the machine's speed
// out of the tracing overhead.
// The program is driven only through its public entry points.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bzip/block_codec.hpp"
#include "dstruct/tm_hash_set.hpp"
#include "dstruct/tm_rbtree_set.hpp"
#include "hist.hpp"
#include "pipez/pipeline.hpp"
#include "tm/tm.hpp"
#include "util/rng.hpp"

namespace {

using namespace tle;
using perfbench::Histogram;
using perfbench::median;

constexpr int kThreads = 4;     // set clients, or pipez workers (nproc = 4)
constexpr int kSlices = 20;     // measured phase = kSlices equal slices
constexpr int kSetupReps = 5;   // setup_s is the median of this many

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double div0(double a, double b) { return b > 0 ? a / b : 0.0; }

struct Options {
  std::string workload;
  std::string sha = "unknown";
  std::string inject;  // "", "corrupt_stream" or "wrong_count"
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};
using Metrics = std::vector<Metric>;

// ---------------------------------------------------------------------------
// Closed-loop measurement
// ---------------------------------------------------------------------------

struct Slice {
  std::uint64_t ops = 0, t0 = 0, t1 = 0;
  Histogram lat;
};

/// What one client recorded during one measured phase. Cache-line aligned:
/// clients write their own log on every operation.
struct alignas(64) ClientLog {
  std::vector<Slice> slices = std::vector<Slice>(kSlices);
  std::vector<Histogram> by_type;  // traced slices: latency per op type
};

/// Run `op` back to back from `start` until the last slice ends. `op`
/// returns its op type, an index below `types`; given `types` (> 0), odd
/// slices are traced.
/// `post` runs after the timed call (output checks), so its cost is the
/// client's, not the operation's.
template <typename Op, typename Post>
void closed_loop(ClientLog& log, std::uint64_t start, std::uint64_t slice_ns,
                 std::size_t types, Op&& op, Post&& post) {
  if (types) log.by_type.resize(types);
  std::uint64_t k = 0;
  log.slices[0].t0 = start;
  for (;;) {
    const std::uint64_t t0 = now_ns();
    const int type = op();
    const std::uint64_t t1 = now_ns();
    post();
    Slice& s = log.slices[k];
    ++s.ops;
    s.t1 = t1;
    s.lat.add(t1 - t0);
    if (types && k % 2 == 1) log.by_type[type].add(t1 - t0);
    if (t1 >= start + (k + 1) * slice_ns) {
      k = (t1 - start) / slice_ns;  // an op may span several slices
      if (k >= kSlices) break;
      log.slices[k].t0 = t1;
    }
  }
}

struct Phase {
  double ops_per_s = 0, p50_us = 0, p99_us = 0, p999_us = 0;
  std::uint64_t ops = 0;
};

/// Median over slices of each slice's throughput and latency percentiles;
/// `parity` 0 or 1 keeps only the even or odd slices, -1 all of them. A
/// slice's throughput sums each client's ops over the time from its slice
/// start to its last completion, so an op that overruns a slice boundary is
/// not counted against the next slice.
Phase summarize(const std::vector<ClientLog>& logs, int parity = -1) {
  std::vector<double> rate, p50, p99, p999;
  Phase out;
  for (int k = 0; k < kSlices; ++k) {
    if (parity >= 0 && k % 2 != parity) continue;
    Histogram merged;
    double r = 0;
    for (const ClientLog& log : logs) {
      const Slice& s = log.slices[k];
      out.ops += s.ops;
      if (s.ops == 0) continue;
      r += static_cast<double>(s.ops) * 1e9 / static_cast<double>(s.t1 - s.t0);
      merged.merge(s.lat);
    }
    if (merged.count() == 0) continue;
    rate.push_back(r);
    p50.push_back(merged.quantile(0.50) / 1e3);
    p99.push_back(merged.quantile(0.99) / 1e3);
    p999.push_back(merged.quantile(0.999) / 1e3);
  }
  out.ops_per_s = median(rate);
  out.p50_us = median(p50);
  out.p99_us = median(p99);
  out.p999_us = median(p999);
  return out;
}

/// Run `client(c, logs[c], start)` on one thread per log, released together
/// at `start`.
template <typename Client>
void run_clients(std::vector<ClientLog>& logs, Client&& client) {
  const int threads = static_cast<int>(logs.size());
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::uint64_t start = 0;
  std::vector<std::thread> pool;
  for (int c = 0; c < threads; ++c) {
    pool.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      client(c, logs[static_cast<std::size_t>(c)], start);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  start = now_ns();
  go.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
}

// ---------------------------------------------------------------------------
// Per-layer metrics (--trace 1)
// ---------------------------------------------------------------------------

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  StatsSnapshot before, after;
  std::uint64_t ops = 0, blocks = 0;
  std::vector<Histogram> set_ops;  // lookup, insert, remove (set workloads)
  double compress_us_per_block = 0, decompress_us_per_block = 0;
  double codec_share_compress = 0, codec_share_decompress = 0;
  double compress_mb_s = 0, decompress_mb_s = 0;
  double overhead_frac = 0;
};

/// Tracing overhead: traced (odd) against untraced (even) slices.
void trace_overhead(const std::vector<ClientLog>& logs, LayerInputs* layer) {
  layer->overhead_frac =
      1.0 - div0(summarize(logs, 1).ops_per_s, summarize(logs, 0).ops_per_s);
}

/// Every per-layer metric, in BENCHMARK.json order; 0 where a layer does no
/// work on the workload.
Metrics layer_metrics(const LayerInputs& in) {
#define D(field) static_cast<double>(in.after.field - in.before.field)
  auto abort_d = [&](AbortCause c) {
    const int i = static_cast<int>(c);
    return static_cast<double>(in.after.aborts[i] - in.before.aborts[i]);
  };
  const double txns = D(commits) + D(serial_commits) + D(lock_sections);
  const double starts = D(txn_starts);
  const double ops = static_cast<double>(in.ops);
  const double blocks = static_cast<double>(in.blocks);
  auto per_ktxn = [&](double n) { return div0(1000 * n, txns); };
  auto per_kop = [&](double n) { return div0(1000 * n, ops); };
  auto q_ns = [&](int type, double q) {
    return in.set_ops.empty() ? 0.0 : in.set_ops[type].quantile(q);
  };
  Metrics m = {
      {"dstruct.lookup_p50_ns", q_ns(0, 0.50), "ns"},
      {"dstruct.lookup_p99_ns", q_ns(0, 0.99), "ns"},
      {"dstruct.insert_p50_ns", q_ns(1, 0.50), "ns"},
      {"dstruct.insert_p99_ns", q_ns(1, 0.99), "ns"},
      {"dstruct.remove_p50_ns", q_ns(2, 0.50), "ns"},
      {"dstruct.remove_p99_ns", q_ns(2, 0.99), "ns"},
      {"tm.attempts_per_txn", div0(starts + D(serial_commits), txns), "ratio"},
      {"tm.commit_yield", div0(D(commits), starts), "ratio"},
      {"tm.serial_frac", div0(D(serial_commits), txns), "ratio"},
      {"tm.aborts_per_ktxn.conflict", per_ktxn(abort_d(AbortCause::Conflict)), "1/ktxn"},
      {"tm.aborts_per_ktxn.validation", per_ktxn(abort_d(AbortCause::Validation)), "1/ktxn"},
      {"tm.aborts_per_ktxn.capacity", per_ktxn(abort_d(AbortCause::Capacity)), "1/ktxn"},
      {"tm.aborts_per_ktxn.spurious", per_ktxn(abort_d(AbortCause::Spurious)), "1/ktxn"},
      {"tm.aborts_per_ktxn.serial_pending", per_ktxn(abort_d(AbortCause::SerialPending)), "1/ktxn"},
      {"tm.aborts_per_ktxn.stripe_busy", per_ktxn(abort_d(AbortCause::StripeBusy)), "1/ktxn"},
      {"tm.quiesce_per_txn", div0(D(quiesce_calls), txns), "ratio"},
      {"tm.quiesce_waits_per_call", div0(D(quiesce_waits), D(quiesce_calls)), "ratio"},
      {"tm.quiesce_wait_us_per_kop", per_kop(D(quiesce_wait_ns) / 1e3), "us/kop"},
      {"tm.noquiesce_honored_frac", div0(D(noquiesce_honored), D(noquiesce_requests)), "ratio"},
      {"tm.stm_read_dedup_per_op", div0(D(stm_read_dedup), ops), "1/op"},
      {"tm.limbo_enqueued_per_kop", per_kop(D(limbo_enqueued)), "1/kop"},
      {"tm.limbo_forced_flushes", D(limbo_forced_flush), "count"},
      {"tm.htm_routed_frees_per_kop", per_kop(D(htm_routed_frees)), "1/kop"},
      {"tm.stripe_bumps_per_commit", div0(D(stripe_bumps), D(commits)), "ratio"},
      {"tm.stripe_false_reval_per_kcommit", div0(1000 * D(stripe_false_revalidations), D(commits)), "1/kcommit"},
      {"gov.backoffs_per_ktxn", per_ktxn(D(gov_backoffs)), "1/ktxn"},
      {"gov.drain_waits_per_ktxn", per_ktxn(D(gov_drain_waits)), "1/ktxn"},
      {"gov.drain_timeouts_per_ktxn", per_ktxn(D(gov_drain_timeouts)), "1/ktxn"},
      {"gov.storm_gated_per_ktxn", per_ktxn(D(gov_storm_gated)), "1/ktxn"},
      {"gov.watchdog_escalations_per_ktxn", per_ktxn(D(gov_watchdog_escalations)), "1/ktxn"},
      {"sync.condvar_waits_per_block", div0(D(condvar_waits), blocks), "1/block"},
      {"sync.condvar_timeouts", D(condvar_timeouts), "count"},
      {"sync.deferred_run_per_block", div0(D(deferred_run), blocks), "1/block"},
      {"bzip.compress_us_per_block", in.compress_us_per_block, "us"},
      {"bzip.decompress_us_per_block", in.decompress_us_per_block, "us"},
      {"pipez.codec_share_compress", in.codec_share_compress, "ratio"},
      {"pipez.codec_share_decompress", in.codec_share_decompress, "ratio"},
      {"pipez.txns_per_block", div0(txns, blocks), "1/block"},
      {"pipez.compress_mb_s", in.compress_mb_s, "MB/s"},
      {"pipez.decompress_mb_s", in.decompress_mb_s, "MB/s"},
      {"trace.overhead_frac", in.overhead_frac, "ratio"},
  };
#undef D
  return m;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// A workload: set up, measure phases, check the program's output.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Client threads of the measured phase (one ClientLog each).
  virtual int clients() const = 0;
  /// Install the workload's RuntimeConfig fields (before any thread runs).
  virtual void configure() = 0;
  /// Build fresh inputs and warm the threads up; called kSetupReps times,
  /// the last set-up is the one measured.
  virtual void setup() = 0;
  /// Measure one phase of `seconds` into `logs`. Given `layer`, the phase
  /// is traced and also fills `layer`.
  virtual void measure(double seconds, std::vector<ClientLog>& logs,
                       LayerInputs* layer) = 0;
  /// Operations whose own output was wrong (checked as they completed).
  virtual std::uint64_t failed_ops() const { return 0; }
  /// Final output check.
  virtual bool check() = 0;
  /// Break the output check on purpose (the benchmark's own tests).
  virtual void inject(const std::string& fault) = 0;
};

struct SetSpec {
  ExecMode mode;
  double spurious;
  long keys;
  unsigned lookup_pct, insert_pct;  // remove = the rest
};

/// Closed-loop clients on a transactional set. The per-client success
/// counters make the final state checkable exactly: per key, successful
/// inserts and removes must alternate, so prefill + inserts - removes is 0
/// or 1 and must match what a quiescent scan finds.
template <typename Set>
class SetWorkload final : public Workload {
 public:
  SetWorkload(const SetSpec& spec, std::uint64_t seed)
      : spec_(spec), seed_(seed) {}

  int clients() const override { return kThreads; }

  void configure() override {
    set_exec_mode(spec_.mode);
    config().htm_spurious_abort_rate = spec_.spurious;
  }

  void setup() override {
    const auto n = static_cast<std::size_t>(spec_.keys);
    set_ = std::make_unique<Set>();
    present_.assign(n, 0);
    Xoshiro256 rng(seed_);
    std::vector<long> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<long>(i);
    for (std::size_t i = n - 1; i > 0; --i)
      std::swap(order[i], order[rng.below(i + 1)]);
    prefill_ = n / 2;
    for (std::size_t i = 0; i < prefill_; ++i) {
      set_->insert(order[i]);
      present_[static_cast<std::size_t>(order[i])] = 1;
    }
    clients_ = std::vector<Client>(kThreads);
    for (int c = 0; c < kThreads; ++c) {
      Client& cl = clients_[static_cast<std::size_t>(c)];
      cl.rng.reseed(seed_ * 0x9E3779B97F4A7C15ULL + static_cast<unsigned>(c) + 1);
      cl.ins.assign(n, 0);
      cl.rem.assign(n, 0);
    }
    // One warm-up thread at a time: with concurrent clients, set-up time
    // would mostly measure how long quiescence waits for a peer the host
    // has descheduled.
    for (int c = 0; c < kThreads; ++c)
      std::thread([this, c] {
        for (int i = 0; i < kWarmupOps; ++i) op(c);
      }).join();
  }

  void measure(double seconds, std::vector<ClientLog>& logs,
               LayerInputs* layer) override {
    constexpr std::size_t kTypes = 3;  // lookup, insert, remove: op()'s result
    const auto slice_ns = static_cast<std::uint64_t>(seconds * 1e9 / kSlices);
    run_clients(logs, [&](int c, ClientLog& log, std::uint64_t start) {
      closed_loop(log, start, slice_ns, layer ? kTypes : 0,
                  [&] { return op(c); }, [] {});
    });
    if (layer) {
      layer->set_ops.assign(kTypes, Histogram());
      for (const ClientLog& log : logs)
        for (std::size_t t = 0; t < kTypes; ++t)
          layer->set_ops[t].merge(log.by_type[t]);
      trace_overhead(logs, layer);
    }
  }

  void inject(const std::string& fault) override {
    if (fault == "wrong_count") expect_extra_ = 1;
  }

  bool check() override {
    bool ok = true;
    std::uint64_t ins = 0, rem = 0;
    for (long k = 0; k < spec_.keys; ++k) {
      const auto i = static_cast<std::size_t>(k);
      std::int64_t live = present_[i];
      for (const Client& cl : clients_) {
        live += cl.ins[i];
        live -= cl.rem[i];
        ins += cl.ins[i];
        rem += cl.rem[i];
      }
      if ((live != 0 && live != 1) || set_->contains(k) != (live == 1)) {
        std::fprintf(stderr, "check: key %ld expected %s\n", k,
                     live == 1 ? "present" : "absent");
        ok = false;
      }
    }
    const std::uint64_t expect = prefill_ + ins - rem + expect_extra_;
    const std::size_t size = set_->size_unsafe();
    if (size != expect) {
      std::fprintf(stderr, "check: size_unsafe() = %zu, expected %llu\n", size,
                   static_cast<unsigned long long>(expect));
      ok = false;
    }
    return ok;
  }

 private:
  static constexpr int kWarmupOps = 20000;

  /// One client's inputs and success counts ([key]); cache-line aligned
  /// because the RNG state is written on every operation.
  struct alignas(64) Client {
    Xoshiro256 rng;
    std::vector<std::uint32_t> ins, rem;
  };

  int op(int c) {
    Client& cl = clients_[static_cast<std::size_t>(c)];
    Xoshiro256& rng = cl.rng;
    const long key = static_cast<long>(rng.below(static_cast<std::uint64_t>(spec_.keys)));
    const auto i = static_cast<std::size_t>(key);
    const std::uint64_t r = rng.below(100);
    if (r < spec_.lookup_pct) {
      (void)set_->contains(key);
      return 0;
    }
    if (r < spec_.lookup_pct + spec_.insert_pct) {
      if (set_->insert(key)) ++cl.ins[i];
      return 1;
    }
    if (set_->remove(key)) ++cl.rem[i];
    return 2;
  }

  SetSpec spec_;
  std::uint64_t seed_;
  std::unique_ptr<Set> set_;
  std::vector<std::uint8_t> present_;
  std::size_t prefill_ = 0;
  std::size_t expect_extra_ = 0;  // 1 under --inject wrong_count
  std::vector<Client> clients_;
};

/// PBZip2 (Figure 2): one client compresses, or decompresses, the same
/// seeded corpus back to back through the 4-worker pipeline. Every output is
/// checked against the set-up's verified reference.
class PipezWorkload final : public Workload {
 public:
  static constexpr std::size_t kCorpusBytes = 2'000'000;
  static constexpr std::size_t kBlockBytes = 100'000;
  static constexpr std::size_t kBlocks = kCorpusBytes / kBlockBytes;
  static_assert(kCorpusBytes % kBlockBytes == 0);

  PipezWorkload(bool compress_side, std::uint64_t seed)
      : compress_side_(compress_side), seed_(seed) {
    cfg_.worker_threads = kThreads;
    cfg_.block_size = kBlockBytes;
  }

  int clients() const override { return 1; }

  void configure() override {
    set_exec_mode(ExecMode::Htm);
    config().htm_spurious_abort_rate = 0.40;  // the paper-calibrated rate
  }

  void setup() override {
    corpus_ = pipez::make_corpus(kCorpusBytes, seed_);
    stream_ = pipez::compress(corpus_, cfg_);
    const pipez::DecompressResult d = pipez::decompress(stream_, cfg_);
    if (!d.ok || d.data != corpus_) {
      std::fprintf(stderr, "setup: reference roundtrip failed: %s\n",
                   d.error.c_str());
      std::exit(2);
    }
  }

  void inject(const std::string& fault) override {
    if (fault == "corrupt_stream") stream_[stream_.size() / 2] ^= 0x55;
  }

  void measure(double seconds, std::vector<ClientLog>& logs,
               LayerInputs* layer) override {
    const auto slice_ns = static_cast<std::uint64_t>(seconds * 1e9 / kSlices);
    bool ok = true;
    run_clients(logs, [&](int, ClientLog& log, std::uint64_t start) {
      closed_loop(
          log, start, slice_ns, layer ? 1 : 0,
          [&] {
            if (compress_side_) {
              out_ = pipez::compress(corpus_, cfg_);
              return 0;
            }
            pipez::DecompressResult d = pipez::decompress(stream_, cfg_);
            ok = d.ok;
            out_ = std::move(d.data);
            return 0;
          },
          [&] {
            if (!ok || out_ != (compress_side_ ? stream_ : corpus_)) ++failed_;
          });
    });
    if (layer) {
      layer->blocks = summarize(logs).ops * kBlocks;
      trace_overhead(logs, layer);
      time_codec(layer);
      // Codec share: single-threaded codec time for one call's blocks over
      // the worker time one pipeline call had (workers x median call).
      const double mb = static_cast<double>(kCorpusBytes) / 1e6;
      const double call_us = logs[0].by_type[0].quantile(0.5) / 1e3;
      const double per_block = compress_side_ ? layer->compress_us_per_block
                                              : layer->decompress_us_per_block;
      const double share = div0(kBlocks * per_block, kThreads * call_us);
      const double mb_s = div0(mb * 1e6, call_us);
      (compress_side_ ? layer->codec_share_compress
                      : layer->codec_share_decompress) = share;
      (compress_side_ ? layer->compress_mb_s : layer->decompress_mb_s) = mb_s;
    }
  }

  std::uint64_t failed_ops() const override { return failed_; }

  bool check() override {
    // A full roundtrip of the last measured output, besides the per-op
    // comparisons against the reference.
    const pipez::DecompressResult d = pipez::decompress(
        compress_side_ ? out_ : pipez::compress(out_, cfg_), cfg_);
    if (!d.ok || d.data != corpus_) {
      std::fprintf(stderr, "check: roundtrip mismatch (%s)\n",
                   d.ok ? "data differs" : d.error.c_str());
      return false;
    }
    if (failed_) {
      std::fprintf(stderr, "check: %llu pipeline outputs differed from the "
                   "reference\n", static_cast<unsigned long long>(failed_));
      return false;
    }
    return true;
  }

 private:
  /// Time bzip's block codec single-threaded on the corpus's own blocks.
  void time_codec(LayerInputs* layer) {
    double c_ns = 0, d_ns = 0;
    std::size_t n = 0;
    for (std::size_t off = 0; off < corpus_.size(); off += kBlockBytes, ++n) {
      const std::size_t len = std::min(kBlockBytes, corpus_.size() - off);
      const std::uint64_t t0 = now_ns();
      const std::vector<std::uint8_t> z = bzip::compress_block(corpus_.data() + off, len);
      const std::uint64_t t1 = now_ns();
      const bzip::DecodeResult d = bzip::decompress_block(z.data(), z.size());
      const std::uint64_t t2 = now_ns();
      if (!d.ok || d.data.size() != len ||
          std::memcmp(d.data.data(), corpus_.data() + off, len) != 0)
        ++failed_;
      c_ns += static_cast<double>(t1 - t0);
      d_ns += static_cast<double>(t2 - t1);
    }
    layer->compress_us_per_block = div0(c_ns / 1e3, static_cast<double>(n));
    layer->decompress_us_per_block = div0(d_ns / 1e3, static_cast<double>(n));
  }

  bool compress_side_;
  std::uint64_t seed_;
  pipez::Config cfg_;
  std::vector<std::uint8_t> corpus_, stream_, out_;
  std::uint64_t failed_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "pipez_compress")
    return std::make_unique<PipezWorkload>(true, seed);
  if (name == "pipez_decompress")
    return std::make_unique<PipezWorkload>(false, seed);
  if (name == "set_read_stm")
    return std::make_unique<SetWorkload<TmRbTreeSet>>(
        SetSpec{ExecMode::StmCondVarNoQ, 0.0, 1024, 90, 5}, seed);
  if (name == "set_write_htm")
    return std::make_unique<SetWorkload<TmHashSet>>(
        SetSpec{ExecMode::Htm, 0.40, 256, 0, 50}, seed);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The RuntimeConfig fields the workloads set, as a canonical string.
std::string config_string() {
  const RuntimeConfig& c = config();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "mode=%s;stm_algo=%s;quiesce=%s;honor_noquiesce=%d;"
                "htm_spurious_abort_rate=%.17g;htm_max_retries=%d;"
                "governor=%d;controller=%d",
                to_string(c.mode), to_string(c.stm_algo), to_string(c.quiesce),
                c.honor_noquiesce, c.htm_spurious_abort_rate,
                c.htm_max_retries, c.governor, c.controller);
  return buf;
}

std::string fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : s) h = (h ^ ch) * 0x100000001b3ULL;
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void print_env(const Options& o) {
  const std::string cfg = config_string();
  std::printf(
      "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"threads\": %d, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"sha\": \"%s\", \"config\": \"%s\", "
      "\"config_digest\": \"%s\"}}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      json_number(o.seconds).c_str(), o.trace ? 1 : 0,
      std::thread::hardware_concurrency(), kThreads, PERFBENCH_BUILD_TYPE,
      "gcc " __VERSION__, o.sha.c_str(), cfg.c_str(), fnv1a(cfg).c_str());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("  %-36s %16.6f ratio (%llu of %llu ops)\n", "failed_frac",
              div0(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// A memory figure of this process image from /proc/self/status, in MB:
/// "VmRSS" (resident now) or "VmHWM" (peak resident). getrusage's ru_maxrss
/// would also count the launcher's pages, which it keeps across exec.
double status_mb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  const std::string prefix = std::string(field) + ": %lf kB";
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f))
    if (std::sscanf(line, prefix.c_str(), &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

int run(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o.workload, o.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  w->configure();
  if (const char* err = validate_config(config())) {
    std::fprintf(stderr, "invalid config: %s\n", err);
    return 2;
  }
  // The client logs are all the memory the measurement itself needs; they
  // are allocated before the baseline reading, so that peak_rss_mb is what
  // the program's set-up and measured phase added to the process.
  std::vector<ClientLog> logs(static_cast<std::size_t>(w->clients()));
  const double rss0_mb = status_mb("VmRSS");
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    const std::uint64_t t0 = now_ns();
    w->setup();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  w->inject(o.inject);

  Metrics metrics;
  std::uint64_t attempted = 0;
  if (!o.trace) {
    w->measure(o.seconds, logs, nullptr);
    const double peak_mb = status_mb("VmHWM") - rss0_mb;
    const Phase p = summarize(logs);
    attempted = p.ops;
    metrics = {{"ops_per_s", p.ops_per_s, "1/s"},
               {"op_p50_us", p.p50_us, "us"},
               {"op_p99_us", p.p99_us, "us"},
               {"op_p999_us", p.p999_us, "us"},
               {"peak_rss_mb", peak_mb, "MB"},
               {"setup_s", median(setup_s), "s"}};
  } else {
    LayerInputs layer;
    layer.before = aggregate_stats();
    w->measure(o.seconds, logs, &layer);
    layer.after = aggregate_stats();
    layer.ops = attempted = summarize(logs).ops;
    metrics = layer_metrics(layer);
  }

  const bool correct = w->check();
  std::uint64_t failed = correct ? std::min(w->failed_ops(), attempted) : attempted;
  print_env(o);
  print_result(correct && failed == 0, attempted, failed, metrics);
  return correct && failed == 0 ? 0 : 1;
}

// Known-answer checks of the order statistics the metrics rest on.
int selftest() {
  int bad = 0;
  auto expect = [&](const char* what, double got, double want, double tol) {
    if (std::fabs(got - want) > tol) {
      std::fprintf(stderr, "selftest: %s = %.6f, want %.6f\n", what, got, want);
      ++bad;
    }
  };
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  expect("p50 of 1..1000", h.quantile(0.50), 500, Histogram::width(Histogram::index(500)));
  expect("p25 of 1..1000", h.quantile(0.25), 250, 0);
  expect("p99 of 1..1000", h.quantile(0.99), 990, Histogram::width(Histogram::index(990)));
  expect("p999 of 1..1000", h.quantile(0.999), 999, Histogram::width(Histogram::index(999)));
  expect("p100 of 1..1000", h.quantile(1.0), 1000, Histogram::width(Histogram::index(1000)));
  Histogram one;
  one.add(123456789);
  expect("p50 of one sample", one.quantile(0.5), 123456789, 123456789 * 0.008);
  Histogram skew;
  for (int i = 0; i < 999; ++i) skew.add(100);
  skew.add(1'000'000);
  expect("p99 of 999x100 + 1e6", skew.quantile(0.99), 100, 0);
  expect("p999 of 999x100 + 1e6", skew.quantile(0.999), 100, 0);
  expect("p100 of 999x100 + 1e6", skew.quantile(1.0), 1'000'000, 1'000'000 * 0.008);
  Histogram big;  // past kRawMax: bucketed
  for (std::uint64_t v = 1; v <= 5000; ++v) big.add(v);
  expect("p50 of 1..5000", big.quantile(0.50), 2500, Histogram::width(Histogram::index(2500)));
  expect("p99 of 1..5000", big.quantile(0.99), 4950, Histogram::width(Histogram::index(4950)));
  expect("p10 of 1..5000", big.quantile(0.10), 500, Histogram::width(Histogram::index(500)));
  Histogram merged;
  merged.merge(h);
  merged.merge(skew);
  expect("merged count", static_cast<double>(merged.count()), 2000, 0);
  expect("merged p50", merged.quantile(0.5), 100, 0);
  merged.merge(big);
  expect("merged+bucketed count", static_cast<double>(merged.count()), 7000, 0);
  expect("merged+bucketed p100", merged.quantile(1.0), 1'000'000, 1'000'000 * 0.008);
  for (std::uint64_t v : {255ULL, 256ULL, 511ULL, 512ULL, 777ULL, 1ULL << 20, (1ULL << 33) + 7}) {
    const std::size_t i = Histogram::index(v);
    const double lo = Histogram::lower(i);
    if (!(lo <= static_cast<double>(v) && static_cast<double>(v) < lo + Histogram::width(i))) {
      std::fprintf(stderr, "selftest: %llu not inside its bucket\n",
                   static_cast<unsigned long long>(v));
      ++bad;
    }
  }
  expect("median odd", median({3, 1, 2}), 2, 0);
  expect("median even", median({4, 1, 3, 2}), 2.5, 0);
  expect("median empty", median({}), 0, 0);
  std::printf("selftest: %s\n", bad ? "FAILED" : "ok");
  return bad ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool seen_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return selftest();
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return 2;
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      seen_workload = true;
    } else if (a == "--seed" || a == "--seconds") {
      char* end = nullptr;
      if (a == "--seed")
        o.seed = std::strtoull(v.c_str(), &end, 10);
      else
        o.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end) {
        std::fprintf(stderr, "bad value for %s: %s\n", a.c_str(), v.c_str());
        return 2;
      }
    } else if (a == "--trace" && (v == "0" || v == "1")) {
      o.trace = v == "1";
    } else if (a == "--sha") {
      o.sha = v;
    } else if (a == "--inject") {
      o.inject = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (!seen_workload || !(o.seconds > 0) ||
      (!o.inject.empty() && o.inject != "corrupt_stream" &&
       o.inject != "wrong_count")) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--sha <sha>] "
                 "[--inject corrupt_stream|wrong_count] | --selftest\n");
    return 2;
  }
  return run(o);
}

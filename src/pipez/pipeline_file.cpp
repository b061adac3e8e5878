// Streaming file interface for pipez.
//
// compress_file: a producer thread reads fixed-size blocks from the input
// file (I/O outside all critical sections, as in PBZip2), consumers
// compress them, and the ordered writer streams frames to the output file —
// peak memory is bounded by the queue window, not the file size.
//
// File stream format (v2, trailer-based so the producer can stream without
// knowing the block count up front):
//   "ZPI2" magic (4B) | u32 block_size |
//   repeated frames:  u32 comp_len (nonzero) | comp_len bytes |
//   u32 0 end marker | u32 nblocks | u64 orig_size
#include <atomic>
#include <cstring>
#include <fstream>
#include <thread>

#include "bzip/block_codec.hpp"
#include "pipez/pipeline.hpp"
#include "sync/bounded_queue.hpp"
#include "sync/tx_condvar.hpp"
#include "tm/api.hpp"
#include "util/timing.hpp"

namespace tle::pipez {

namespace {

constexpr char kFileMagic[4] = {'Z', 'P', 'I', '2'};

struct FileBlock {
  std::uint32_t index;
  std::vector<std::uint8_t>* data;  // owned; consumer deletes after use
};

void put_u32(std::ofstream& out, std::uint32_t v) {
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out.write(b, 4);
}

void put_u64(std::ofstream& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

bool get_u32(std::ifstream& in, std::uint32_t* v) {
  char b[4];
  if (!in.read(b, 4)) return false;
  std::memcpy(v, b, 4);
  return true;
}

bool get_u64(std::ifstream& in, std::uint64_t* v) {
  std::uint32_t lo, hi;
  if (!get_u32(in, &lo) || !get_u32(in, &hi)) return false;
  *v = static_cast<std::uint64_t>(hi) << 32 | lo;
  return true;
}

/// Ordered hand-off of finished blocks to the streaming writer (same shape
/// as the in-memory OutputCollector, unbounded index horizon).
class StreamCollector {
 public:
  explicit StreamCollector(std::size_t window)
      : window_(window < 4 ? 4 : window),
        slots_(new tm_var<std::vector<std::uint8_t>*>[window_]) {}

  ~StreamCollector() {
    for (std::size_t i = 0; i < window_; ++i) delete slots_[i].unsafe_get();
  }

  /// Deliver block `idx`; blocks while the writer is more than a window
  /// behind (bounds memory).
  void deliver(std::size_t idx, std::vector<std::uint8_t>* data) {
    for (;;) {
      bool placed = false;
      critical(m_, TLE_TX_SITE("pipez/file_deliver"), [&](TxContext& tx) {
        if (idx >= tx.read(written_) + window_ ||
            tx.read(slots_[idx % window_]) != nullptr) {
          tx.no_quiesce();
          ready_.wait(tx);
          return;
        }
        tx.no_quiesce();  // publication
        tx.write(slots_[idx % window_], data);
        ready_.notify_all(tx);
        placed = true;
      });
      if (placed) return;
    }
  }

  /// Writer: take block `idx` (ascending). Blocks until available.
  std::vector<std::uint8_t>* take(std::size_t idx) {
    for (;;) {
      std::vector<std::uint8_t>* p = try_take(idx);
      if (p) return p;
    }
  }

  /// One bounded attempt at block `idx`; nullptr after a short timed wait
  /// (lets the caller interleave termination checks — needed while the
  /// total block count is still unknown during streaming compression).
  std::vector<std::uint8_t>* try_take(std::size_t idx) {
    std::vector<std::uint8_t>* p = nullptr;
    critical(m_, TLE_TX_SITE("pipez/file_take"), [&](TxContext& tx) {
      p = tx.read(slots_[idx % window_]);
      if (p) {
        tx.write(slots_[idx % window_],
                 static_cast<std::vector<std::uint8_t>*>(nullptr));
        tx.write(written_, idx + 1);
        ready_.notify_all(tx);
        // privatization: no TM_NoQuiesce
      } else {
        tx.no_quiesce();
        ready_.wait_for(tx, std::chrono::milliseconds(1));
      }
    });
    return p;
  }

 private:
  const std::size_t window_;
  std::unique_ptr<tm_var<std::vector<std::uint8_t>*>[]> slots_;
  tm_var<std::uint64_t> written_{0};
  elidable_mutex m_;
  tx_condvar ready_;
};

}  // namespace

FileResult compress_file(const std::string& input_path,
                         const std::string& output_path, const Config& cfg) {
  Stopwatch sw;
  FileResult res;
  if (cfg.block_size > bzip::kMaxBlockBytes) {
    res.error = "block size exceeds bzip::kMaxBlockBytes";
    return res;
  }
  std::ifstream in(input_path, std::ios::binary);
  if (!in) {
    res.error = "cannot open input: " + input_path;
    return res;
  }
  std::ofstream out(output_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    res.error = "cannot open output: " + output_path;
    return res;
  }

  const std::size_t bs = cfg.block_size ? cfg.block_size : 1;
  out.write(kFileMagic, 4);
  put_u32(out, static_cast<std::uint32_t>(bs));

  bounded_queue<FileBlock*> fifo(cfg.queue_capacity);
  StreamCollector collected(cfg.queue_capacity * 2);
  std::atomic<std::uint64_t> total_in{0};
  std::atomic<std::uint32_t> total_blocks{0};

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(cfg.worker_threads));
  for (int w = 0; w < cfg.worker_threads; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        auto task = fifo.pop();
        if (!task.has_value()) break;
        FileBlock* b = *task;
        auto* comp = new std::vector<std::uint8_t>(
            bzip::compress_block(b->data->data(), b->data->size()));
        collected.deliver(b->index, comp);
        delete b->data;
        delete b;
      }
    });
  }

  std::thread producer([&] {
    std::uint32_t index = 0;
    for (;;) {
      auto* buf = new std::vector<std::uint8_t>(bs);
      in.read(reinterpret_cast<char*>(buf->data()),
              static_cast<std::streamsize>(bs));
      const std::streamsize got = in.gcount();
      if (got <= 0) {
        delete buf;
        break;
      }
      buf->resize(static_cast<std::size_t>(got));
      total_in.fetch_add(static_cast<std::uint64_t>(got));
      fifo.push(new FileBlock{index++, buf});
      if (got < static_cast<std::streamsize>(bs)) break;  // EOF reached
    }
    total_blocks.store(index);
    fifo.close();
  });

  // Write frames WHILE the producer still reads (total_blocks is only
  // meaningful once producer_done flips; until then keep draining).
  std::atomic<bool> producer_done{false};
  std::thread producer_waiter([&] {
    producer.join();
    producer_done.store(true, std::memory_order_release);
  });
  std::uint64_t out_bytes = 8;
  std::uint32_t i = 0;
  for (;;) {
    if (producer_done.load(std::memory_order_acquire) &&
        i >= total_blocks.load())
      break;
    std::vector<std::uint8_t>* blk = collected.try_take(i);
    if (!blk) continue;  // timed wait inside; re-check termination
    put_u32(out, static_cast<std::uint32_t>(blk->size()));
    out.write(reinterpret_cast<const char*>(blk->data()),
              static_cast<std::streamsize>(blk->size()));
    out_bytes += 4 + blk->size();
    delete blk;
    ++i;
  }
  producer_waiter.join();
  for (auto& w : workers) w.join();
  const std::uint32_t nblocks = total_blocks.load();

  put_u32(out, 0);  // end marker
  put_u32(out, nblocks);
  put_u64(out, total_in.load());
  out.flush();
  if (!out) {
    res.error = "write failure on " + output_path;
    return res;
  }
  res.ok = true;
  res.stats.blocks = nblocks;
  res.stats.in_bytes = total_in.load();
  res.stats.out_bytes = out_bytes + 16;
  res.stats.seconds = sw.seconds();
  return res;
}

FileResult decompress_file(const std::string& input_path,
                           const std::string& output_path, const Config& cfg) {
  Stopwatch sw;
  FileResult res;
  // Frame lengths are checked against the bytes left before anything is
  // sized from them, so the input must be a file of known size.
  std::ifstream in(input_path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in ? static_cast<std::streamoff>(in.tellg()) : -1;
  if (size < 0 || !in.seekg(0)) {
    res.error = "cannot open input: " + input_path;
    return res;
  }
  std::uint64_t left = static_cast<std::uint64_t>(size);
  char magic[4];
  std::uint32_t bs = 0;
  if (!in.read(magic, 4) || std::memcmp(magic, kFileMagic, 4) != 0 ||
      !get_u32(in, &bs)) {
    res.error = "bad file magic";
    return res;
  }
  left -= 8;

  // Load the frames (compressed data is the small side; random access is
  // needed for parallel decode).
  struct Frame {
    std::vector<std::uint8_t> data;
  };
  std::vector<Frame> frames;
  for (;;) {
    std::uint32_t len = 0;
    if (!get_u32(in, &len)) {
      res.error = "truncated stream (missing end marker)";
      return res;
    }
    left -= 4;
    if (len == 0) break;
    if (len > left) {
      res.error = "truncated frame";
      return res;
    }
    left -= len;
    Frame f;
    f.data.resize(len);
    if (!in.read(reinterpret_cast<char*>(f.data.data()), len)) {
      res.error = "truncated frame";
      return res;
    }
    frames.push_back(std::move(f));
  }
  std::uint32_t nblocks = 0;
  std::uint64_t orig_size = 0;
  if (!get_u32(in, &nblocks) || !get_u64(in, &orig_size) ||
      nblocks != frames.size()) {
    res.error = "corrupt trailer";
    return res;
  }

  std::ofstream out(output_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    res.error = "cannot open output: " + output_path;
    return res;
  }

  bounded_queue<FileBlock*> fifo(cfg.queue_capacity);
  StreamCollector collected(cfg.queue_capacity * 2);
  std::atomic<bool> failed{false};

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(cfg.worker_threads));
  for (int w = 0; w < cfg.worker_threads; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        auto task = fifo.pop();
        if (!task.has_value()) break;
        FileBlock* b = *task;
        bzip::DecodeResult d = bzip::decompress_block(*b->data);
        if (!d.ok) failed.store(true, std::memory_order_relaxed);
        collected.deliver(b->index,
                          new std::vector<std::uint8_t>(std::move(d.data)));
        delete b;
      }
    });
  }

  std::thread producer([&] {
    for (std::uint32_t i = 0; i < nblocks; ++i)
      fifo.push(new FileBlock{i, &frames[i].data});
    fifo.close();
  });

  std::uint64_t written = 0;
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    std::vector<std::uint8_t>* blk = collected.take(i);
    out.write(reinterpret_cast<const char*>(blk->data()),
              static_cast<std::streamsize>(blk->size()));
    written += blk->size();
    delete blk;
  }
  producer.join();
  for (auto& w : workers) w.join();
  out.flush();

  if (failed.load()) {
    res.error = "block decode failed (corrupt stream)";
    return res;
  }
  if (written != orig_size) {
    res.error = "reassembled size mismatch";
    return res;
  }
  if (!out) {
    res.error = "write failure on " + output_path;
    return res;
  }
  res.ok = true;
  res.stats.blocks = nblocks;
  res.stats.in_bytes = 0;
  res.stats.out_bytes = written;
  res.stats.seconds = sw.seconds();
  return res;
}

}  // namespace tle::pipez

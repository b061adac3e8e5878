// pipez — a faithful architectural clone of PBZip2 (the paper's first
// application): a serial-parallel-serial pipeline with
//
//   producer  -> bounded FIFO of block descriptors ->
//   N consumer threads (compress/decompress, OUTSIDE critical sections) ->
//   ordered output collector -> serial writer
//
// All inter-stage synchronization runs through tle::critical /
// tle::tx_condvar, so the whole pipeline executes under any of the paper's
// five configurations (Lock / STM+Spin / STM+CondVar / +NoQuiesce / HTM)
// chosen via tle::set_exec_mode().
//
// The critical sections only touch queue metadata — small and syscall-free,
// exactly the property the paper reports for PBZip2.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tle::pipez {

struct Config {
  int worker_threads = 4;              ///< consumer (compressor) threads
  std::size_t block_size = 900000;     ///< paper default "900K"; at most
                                       ///< bzip::kMaxBlockBytes
  std::size_t queue_capacity = 16;     ///< pending block descriptors
  bool verbose_log = false;            ///< exercise deferred logging (§VI-c)
};

struct RunStats {
  std::uint64_t blocks = 0;
  std::uint64_t in_bytes = 0;
  std::uint64_t out_bytes = 0;
  double seconds = 0;
};

/// Compress `input` into a framed multi-block stream. Throws
/// std::invalid_argument if cfg.block_size exceeds bzip::kMaxBlockBytes.
std::vector<std::uint8_t> compress(const std::vector<std::uint8_t>& input,
                                   const Config& cfg, RunStats* stats = nullptr);

struct DecompressResult {
  bool ok = false;
  std::string error;
  std::vector<std::uint8_t> data;
};

/// Decompress a stream produced by compress(). Block integrity (CRC) is
/// verified; any corruption fails the whole run.
DecompressResult decompress(const std::vector<std::uint8_t>& stream,
                            const Config& cfg, RunStats* stats = nullptr);

/// Deterministic, compressible synthetic corpus (the stand-in for the
/// paper's 650 MB test file; size set by the caller).
std::vector<std::uint8_t> make_corpus(std::size_t bytes, std::uint64_t seed);

// --- file interface ---------------------------------------------------------
// Streaming variants mirroring the PBZip2 tool: the producer reads blocks
// from disk and the ordered writer streams frames out, so peak memory is
// bounded by the in-flight block window rather than the file size.

struct FileResult {
  bool ok = false;
  std::string error;
  RunStats stats;
};

FileResult compress_file(const std::string& input_path,
                         const std::string& output_path, const Config& cfg);

FileResult decompress_file(const std::string& input_path,
                           const std::string& output_path, const Config& cfg);

/// Drain the deferred-log buffer filled when Config::verbose_log is set.
std::vector<std::string> drain_log();

}  // namespace tle::pipez

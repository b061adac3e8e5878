// Tests for the pipez streaming file interface.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "pipez/pipeline.hpp"
#include "test_support.hpp"

namespace tle::pipez {
namespace {

using tle::testing::kAllModes;
using tle::testing::ModeGuard;

class TempFile {
 public:
  explicit TempFile(const char* tag) {
    static int counter = 0;
    path_ = ::testing::TempDir() + "pipez_" + tag + "_" +
            std::to_string(::getpid()) + "_" + std::to_string(counter++);
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void write_file(const std::string& path, const std::vector<std::uint8_t>& data) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class FileModes : public ::testing::TestWithParam<ExecMode> {};

INSTANTIATE_TEST_SUITE_P(PipezFile, FileModes, ::testing::ValuesIn(kAllModes),
                         [](const auto& info) {
                           std::string s = to_string(info.param);
                           for (auto& c : s)
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           return s;
                         });

TEST_P(FileModes, FileRoundTrip) {
  ModeGuard g(GetParam());
  const auto corpus = make_corpus(200000, 31);
  TempFile input("in"), packed("pz"), restored("out");
  write_file(input.path(), corpus);

  Config cfg;
  cfg.worker_threads = 3;
  cfg.block_size = 30000;
  const auto c = compress_file(input.path(), packed.path(), cfg);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_EQ(c.stats.blocks, 7u);  // ceil(200000/30000)
  EXPECT_EQ(c.stats.in_bytes, corpus.size());
  EXPECT_LT(c.stats.out_bytes, corpus.size());

  const auto d = decompress_file(packed.path(), restored.path(), cfg);
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_EQ(read_file(restored.path()), corpus);
}

TEST(PipezFile, ExactBlockMultiple) {
  ModeGuard g(ExecMode::StmCondVar);
  const auto corpus = make_corpus(4 * 25000, 32);
  TempFile input("in"), packed("pz"), restored("out");
  write_file(input.path(), corpus);
  Config cfg;
  cfg.worker_threads = 2;
  cfg.block_size = 25000;
  const auto c = compress_file(input.path(), packed.path(), cfg);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_EQ(c.stats.blocks, 4u);
  const auto d = decompress_file(packed.path(), restored.path(), cfg);
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_EQ(read_file(restored.path()), corpus);
}

TEST(PipezFile, EmptyFile) {
  ModeGuard g(ExecMode::Htm);
  TempFile input("in"), packed("pz"), restored("out");
  write_file(input.path(), {});
  Config cfg;
  cfg.worker_threads = 2;
  const auto c = compress_file(input.path(), packed.path(), cfg);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_EQ(c.stats.blocks, 0u);
  const auto d = decompress_file(packed.path(), restored.path(), cfg);
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_TRUE(read_file(restored.path()).empty());
}

TEST(PipezFile, MissingInputFails) {
  Config cfg;
  const auto c = compress_file("/nonexistent/nope", "/tmp/x", cfg);
  EXPECT_FALSE(c.ok);
  const auto d = decompress_file("/nonexistent/nope", "/tmp/x", cfg);
  EXPECT_FALSE(d.ok);
}

TEST(PipezFile, CorruptedArchiveRejected) {
  ModeGuard g(ExecMode::Lock);
  const auto corpus = make_corpus(80000, 33);
  TempFile input("in"), packed("pz"), restored("out");
  write_file(input.path(), corpus);
  Config cfg;
  cfg.worker_threads = 2;
  cfg.block_size = 20000;
  ASSERT_TRUE(compress_file(input.path(), packed.path(), cfg).ok);

  auto bytes = read_file(packed.path());
  bytes[bytes.size() / 2] ^= 0x10;  // flip inside a frame
  write_file(packed.path(), bytes);
  const auto d = decompress_file(packed.path(), restored.path(), cfg);
  EXPECT_FALSE(d.ok);
  EXPECT_FALSE(d.error.empty());
}

TEST(PipezFile, TruncatedArchiveRejected) {
  ModeGuard g(ExecMode::Lock);
  const auto corpus = make_corpus(60000, 34);
  TempFile input("in"), packed("pz"), restored("out");
  write_file(input.path(), corpus);
  Config cfg;
  cfg.worker_threads = 2;
  cfg.block_size = 20000;
  ASSERT_TRUE(compress_file(input.path(), packed.path(), cfg).ok);
  auto bytes = read_file(packed.path());
  auto corrupt_len = bytes;
  bytes.resize(bytes.size() - 10);  // lose the trailer
  write_file(packed.path(), bytes);
  EXPECT_FALSE(decompress_file(packed.path(), restored.path(), cfg).ok);

  // A first frame length past the end of the file fails before anything is
  // sized from it.
  corrupt_len[11] = 0xFF;  // top byte of the frame length after the header
  write_file(packed.path(), corrupt_len);
  FileResult d;
  ASSERT_NO_THROW(d = decompress_file(packed.path(), restored.path(), cfg));
  EXPECT_FALSE(d.ok);
  EXPECT_FALSE(d.error.empty());
}

TEST(PipezFile, FileAndMemoryFormatsCompressEqually) {
  // Both paths use the same block codec: per-block payloads are identical.
  ModeGuard g(ExecMode::StmCondVarNoQ);
  const auto corpus = make_corpus(50000, 35);
  TempFile input("in"), packed("pz");
  write_file(input.path(), corpus);
  Config cfg;
  cfg.worker_threads = 2;
  cfg.block_size = 50000;  // single block
  ASSERT_TRUE(compress_file(input.path(), packed.path(), cfg).ok);
  const auto filed = read_file(packed.path());
  const auto memory = compress(corpus, cfg);
  // Skip the format headers (8B file / 16B memory) and frame length words;
  // compare the single block payload.
  const std::vector<std::uint8_t> p1(filed.begin() + 12, filed.end() - 16);
  const std::vector<std::uint8_t> p2(memory.begin() + 20, memory.end());
  EXPECT_EQ(p1, p2);
}

}  // namespace
}  // namespace tle::pipez

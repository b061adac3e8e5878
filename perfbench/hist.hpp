// Latency histogram and order statistics for the perfbench program.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Latency histogram of nanosecond durations. Up to kRawMax samples are kept
/// as they are and give exact quantiles (pipez slices hold tens of calls).
/// Beyond that it is log-linear: exact below 256 ns, then 128 sub-buckets per
/// power of two, so a bucket is at most 0.8% of its value wide. All of its
/// memory (24 KiB) is allocated and written when it is constructed, so that
/// adding samples later never grows the process's resident set.
class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::uint64_t kExact = 2 * kSub;
  static constexpr int kMaxShift = 30;  // values below 2^38 ns (~4.5 min)
  static constexpr std::size_t kBuckets = kExact + kMaxShift * kSub;
  static constexpr std::size_t kRawMax = 1024;

  Histogram() : raw_(kRawMax), counts_(kBuckets) {}

  void add(std::uint64_t ns) {
    if (bucketed_) {
      ++counts_[index(ns)];
    } else if (n_ < kRawMax) {
      raw_[n_] = ns;
    } else {
      spill();
      ++counts_[index(ns)];
    }
    ++n_;
  }

  void merge(const Histogram& o) {
    if (!bucketed_ && !o.bucketed_ && n_ + o.n_ <= kRawMax) {
      std::copy_n(o.raw_.begin(), o.n_, raw_.begin() + static_cast<std::ptrdiff_t>(n_));
      n_ += o.n_;
      return;
    }
    if (!bucketed_) spill();
    if (o.bucketed_) {
      for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    } else {
      for (std::size_t i = 0; i < o.n_; ++i) ++counts_[index(o.raw_[i])];
    }
    n_ += o.n_;
  }

  std::uint64_t count() const { return n_; }

  /// Nearest-rank quantile (the smallest sample with at least q*n samples at
  /// or below it); once bucketed, interpolated by rank inside its bucket.
  /// 0 when empty.
  double quantile(double q) const {
    if (n_ == 0) return 0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_) - 1e-9)));
    if (!bucketed_) {
      std::vector<std::uint64_t> v(raw_.begin(), raw_.begin() + static_cast<std::ptrdiff_t>(n_));
      std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
      return static_cast<double>(v[rank - 1]);
    }
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = counts_[i];
      if (below + c >= rank) {
        if (i < kExact) return static_cast<double>(i);
        const double f = (static_cast<double>(rank - below) - 0.5) / static_cast<double>(c);
        return lower(i) + f * width(i);
      }
      below += c;
    }
    return lower(kBuckets - 1);
  }

  static std::size_t index(std::uint64_t v) {
    if (v < kExact) return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - 1 - kSubBits;  // >= 1
    if (shift > kMaxShift) return kBuckets - 1;
    return kExact + static_cast<std::size_t>(shift - 1) * kSub +
           static_cast<std::size_t>((v >> shift) - kSub);
  }

  static double lower(std::size_t i) {
    if (i < kExact) return static_cast<double>(i);
    const std::size_t shift = (i - kExact) / kSub + 1;
    const std::uint64_t mant = kSub + (i - kExact) % kSub;
    return static_cast<double>(mant << shift);
  }

  static double width(std::size_t i) {
    if (i < kExact) return 1;
    return static_cast<double>(std::uint64_t{1} << ((i - kExact) / kSub + 1));
  }

 private:
  void spill() {
    for (std::size_t i = 0; i < n_; ++i) ++counts_[index(raw_[i])];
    bucketed_ = true;
  }

  std::vector<std::uint64_t> raw_;     // the first n_ samples, until spill()
  std::vector<std::uint32_t> counts_;  // buckets, after spill()
  std::uint64_t n_ = 0;
  bool bucketed_ = false;
};

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench

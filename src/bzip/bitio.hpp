// Bit-granular I/O over byte buffers, MSB-first (as in bzip2's format).
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace tle::bzip {

class BitWriter {
 public:
  /// Append the low `nbits` of `value`, MSB first. nbits in [0, 57].
  void put(std::uint64_t value, unsigned nbits) {
    acc_ = (acc_ << nbits) | (value & ((nbits >= 64 ? 0 : (1ULL << nbits)) - 1));
    fill_ += nbits;
    while (fill_ >= 8) {
      fill_ -= 8;
      out_.push_back(static_cast<std::uint8_t>(acc_ >> fill_));
    }
  }

  /// Pad with zero bits to a byte boundary and return the buffer.
  std::vector<std::uint8_t> finish() {
    if (fill_ > 0) {
      out_.push_back(static_cast<std::uint8_t>(acc_ << (8 - fill_)));
      fill_ = 0;
    }
    acc_ = 0;
    return std::move(out_);
  }

  std::size_t bit_count() const noexcept { return out_.size() * 8 + fill_; }

 private:
  std::vector<std::uint8_t> out_;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

/// Reads through a 64-bit window whose top `count_` bits are the next bits
/// of the stream. Bits past the end of the buffer read as zero, so peek()
/// never fails; consume() is where an overrun is reported.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  /// The next `nbits` (1..32) bits, MSB first, without consuming them.
  std::uint32_t peek(unsigned nbits) {
    if (count_ < nbits) refill();
    return static_cast<std::uint32_t>(window_ >> (64 - nbits));
  }

  /// Drop `nbits` bits, at most as many as the last peek() asked for.
  /// Returns false if that reads past the end of the buffer.
  bool consume(unsigned nbits) {
    window_ <<= nbits;
    count_ -= nbits;
    return bits_consumed() <= size_ * 8;
  }

  /// Read `nbits` (MSB first, nbits in [0, 64]). Returns false on underrun.
  bool get(unsigned nbits, std::uint64_t* out) {
    if (nbits > 32) {
      std::uint64_t hi = 0, lo = 0;
      if (!get(nbits - 32, &hi) || !get(32, &lo)) return false;
      *out = hi << 32 | lo;
      return true;
    }
    if (nbits == 0) {
      *out = 0;
      return true;
    }
    *out = peek(nbits);
    return consume(nbits);
  }

  /// Bits consumed so far, counting any read past the end.
  std::size_t bits_consumed() const noexcept { return pos_ * 8 - count_; }

 private:
  /// Top the window up to at least 56 bits.
  void refill() {
    if (pos_ + 8 <= size_) {
      // Whole-word load. Bits below the refilled bytes are the stream's own
      // next bits, so the next refill ORs the same values over them.
      std::uint64_t w = 0;
      for (int i = 0; i < 8; ++i) w = w << 8 | data_[pos_ + i];
      window_ |= w >> count_;
      pos_ += (63 - count_) >> 3;
      count_ |= 56;
      return;
    }
    while (count_ <= 56) {
      const std::uint64_t b = pos_ < size_ ? data_[pos_] : 0;
      window_ |= b << (56 - count_);
      ++pos_;  // counts the zero padding too
      count_ += 8;
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;  ///< bytes loaded into the window, padding included
  std::uint64_t window_ = 0;
  unsigned count_ = 0;
};

}  // namespace tle::bzip

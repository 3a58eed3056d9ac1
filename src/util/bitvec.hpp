// bitvec.hpp — fixed-width dynamic bit vector.
//
// BitVec is the common currency between the genome layer (36-bit gait
// genomes) and the FPGA configuration path (bitstream frames and the
// config-ROM contents the RTL loader streams). RTL nets are plain integers
// of at most 64 bits and do not use it. It stores bits little-endian in
// 64-bit words: bit 0 is the LSB of word 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace leo::util {

class BitVec {
 public:
  BitVec() = default;

  /// Creates a vector of `width` bits, all zero.
  explicit BitVec(std::size_t width);

  /// Creates a vector of `width` bits initialized from the low bits of
  /// `value` (bits beyond 64 are zero).
  BitVec(std::size_t width, std::uint64_t value);

  /// Parses a string of '0'/'1' characters, MSB first ("1011" -> 0xB).
  /// Underscores are ignored as visual separators.
  static BitVec from_binary(const std::string& text);

  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] bool empty() const noexcept { return width_ == 0; }

  [[nodiscard]] bool get(std::size_t i) const;
  void set(std::size_t i, bool v);
  void flip(std::size_t i);
  void clear() noexcept;

  /// Bits [lo, lo+n) as a u64. Requires n <= 64.
  [[nodiscard]] std::uint64_t slice_u64(std::size_t lo, std::size_t n) const;
  /// Writes the low n bits of `value` into bits [lo, lo+n). Requires n <= 64.
  void set_slice_u64(std::size_t lo, std::size_t n, std::uint64_t value);

  /// Extracts bits [lo, lo+n) as a new BitVec.
  [[nodiscard]] BitVec slice(std::size_t lo, std::size_t n) const;

  /// Whole vector as u64; requires width() <= 64.
  [[nodiscard]] std::uint64_t to_u64() const;

  [[nodiscard]] std::size_t popcount() const noexcept;

  /// Number of bit positions where *this and other differ (equal widths).
  [[nodiscard]] std::size_t hamming_distance(const BitVec& other) const;

  /// MSB-first binary string, optionally grouped every `group` bits with '_'.
  [[nodiscard]] std::string to_binary(std::size_t group = 0) const;
  /// MSB-first hex string (width rounded up to a nibble), e.g. "0x2d".
  [[nodiscard]] std::string to_hex() const;

  bool operator==(const BitVec& other) const noexcept = default;

  /// Word-level access for bulk operations (e.g. VCD dumping). The top
  /// word's unused bits are guaranteed zero.
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }

 private:
  void check_index(std::size_t i) const;
  void mask_top_word() noexcept;

  std::size_t width_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace leo::util

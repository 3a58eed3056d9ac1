#include "fpga/bitstream.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "genome/gait_genome.hpp"

namespace leo::fpga {

namespace {

/// Appends the low `n` bits of `value`, LSB first.
void append_field(std::vector<bool>& bits, std::uint64_t value,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) bits.push_back(((value >> i) & 1) != 0);
}

/// Bits [lo, lo+n) as a little-endian number. Requires n <= 64; throws
/// std::out_of_range past the end (GCC 12's _GLIBCXX_ASSERTIONS does not
/// check std::vector<bool>::operator[]).
std::uint64_t read_field(const std::vector<bool>& bits, std::size_t lo,
                         std::size_t n) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < n; ++i) {
    value |= static_cast<std::uint64_t>(bits.at(lo + i)) << i;
  }
  return value;
}

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection) over the
/// first `n` bits, packed LSB-first into bytes; a final partial byte is
/// zero-padded, as the ConfigLoader does.
std::uint16_t crc16_ccitt(const std::vector<bool>& bits, std::size_t n) {
  std::uint16_t crc = 0xFFFF;
  for (std::size_t lo = 0; lo < n; lo += 8) {
    crc = crc16_update(crc, static_cast<std::uint8_t>(read_field(
                                bits, lo, std::min<std::size_t>(8, n - lo))));
  }
  return crc;
}

}  // namespace

std::vector<bool> pack_frame(const std::vector<bool>& payload) {
  if (payload.empty() || payload.size() > 255) {
    throw std::invalid_argument("pack_frame: payload width in [1, 255]");
  }
  std::vector<bool> frame;
  frame.reserve(kFrameHeaderBits + payload.size() + 16);
  append_field(frame, kFrameMagic, 16);
  append_field(frame, kFrameVersion, 8);
  append_field(frame, payload.size(), 8);
  frame.insert(frame.end(), payload.begin(), payload.end());
  append_field(frame, crc16_ccitt(frame, frame.size()), 16);
  return frame;
}

std::vector<bool> unpack_frame(const std::vector<bool>& frame) {
  if (frame.size() < kFrameHeaderBits + 16 + 1) {
    throw std::runtime_error("unpack_frame: truncated frame");
  }
  if (read_field(frame, 0, 16) != kFrameMagic) {
    throw std::runtime_error("unpack_frame: bad magic");
  }
  if (read_field(frame, 16, 8) != kFrameVersion) {
    throw std::runtime_error("unpack_frame: unsupported version");
  }
  const std::size_t body_bits = kFrameHeaderBits + read_field(frame, 24, 8);
  if (frame.size() != body_bits + 16) {
    throw std::runtime_error("unpack_frame: width field mismatch");
  }
  if (read_field(frame, body_bits, 16) != crc16_ccitt(frame, body_bits)) {
    throw std::runtime_error("unpack_frame: CRC mismatch (corrupt stream)");
  }
  return {frame.begin() + kFrameHeaderBits,
          frame.begin() + static_cast<std::ptrdiff_t>(body_bits)};
}

std::vector<bool> pack_genome(std::uint64_t genome_bits) {
  std::vector<bool> payload;
  append_field(payload, genome_bits, genome::kGenomeBits);
  return pack_frame(payload);
}

std::uint64_t unpack_genome(const std::vector<bool>& frame) {
  const std::vector<bool> payload = unpack_frame(frame);
  if (payload.size() != genome::kGenomeBits) {
    throw std::runtime_error("unpack_genome: payload is not a gait genome");
  }
  return read_field(payload, 0, genome::kGenomeBits);
}

}  // namespace leo::fpga

#include "fpga/bitstream.hpp"

#include <stdexcept>

#include "genome/gait_genome.hpp"

namespace leo::fpga {

std::uint16_t crc16_ccitt(const util::BitVec& bits) {
  std::uint16_t crc = 0xFFFF;
  const std::size_t bytes = (bits.width() + 7) / 8;
  for (std::size_t i = 0; i < bytes; ++i) {
    const std::size_t lo = i * 8;
    const std::size_t n = std::min<std::size_t>(8, bits.width() - lo);
    crc = crc16_update(crc, static_cast<std::uint8_t>(bits.slice_u64(lo, n)));
  }
  return crc;
}

util::BitVec pack_frame(const util::BitVec& payload) {
  if (payload.width() == 0 || payload.width() > 255) {
    throw std::invalid_argument("pack_frame: payload width in [1, 255]");
  }
  util::BitVec body(kFrameHeaderBits + payload.width());
  body.set_slice_u64(0, 16, kFrameMagic);
  body.set_slice_u64(16, 8, kFrameVersion);
  body.set_slice_u64(24, 8, payload.width());
  for (std::size_t i = 0; i < payload.width(); ++i) {
    body.set(kFrameHeaderBits + i, payload.get(i));
  }
  const std::uint16_t crc = crc16_ccitt(body);

  util::BitVec frame(body.width() + 16);
  for (std::size_t i = 0; i < body.width(); ++i) frame.set(i, body.get(i));
  frame.set_slice_u64(body.width(), 16, crc);
  return frame;
}

util::BitVec unpack_frame(const util::BitVec& frame) {
  if (frame.width() < kFrameHeaderBits + 16 + 1) {
    throw std::runtime_error("unpack_frame: truncated frame");
  }
  if (frame.slice_u64(0, 16) != kFrameMagic) {
    throw std::runtime_error("unpack_frame: bad magic");
  }
  if (frame.slice_u64(16, 8) != kFrameVersion) {
    throw std::runtime_error("unpack_frame: unsupported version");
  }
  const auto width = static_cast<std::size_t>(frame.slice_u64(24, 8));
  if (frame.width() != kFrameHeaderBits + width + 16) {
    throw std::runtime_error("unpack_frame: width field mismatch");
  }
  const util::BitVec body = frame.slice(0, kFrameHeaderBits + width);
  const auto crc = static_cast<std::uint16_t>(
      frame.slice_u64(kFrameHeaderBits + width, 16));
  if (crc != crc16_ccitt(body)) {
    throw std::runtime_error("unpack_frame: CRC mismatch (corrupt stream)");
  }
  return body.slice(kFrameHeaderBits, width);
}

util::BitVec pack_genome(std::uint64_t genome_bits) {
  return pack_frame(util::BitVec(genome::kGenomeBits, genome_bits));
}

std::uint64_t unpack_genome(const util::BitVec& frame) {
  const util::BitVec payload = unpack_frame(frame);
  if (payload.width() != genome::kGenomeBits) {
    throw std::runtime_error("unpack_genome: payload is not a gait genome");
  }
  return payload.to_u64();
}

}  // namespace leo::fpga

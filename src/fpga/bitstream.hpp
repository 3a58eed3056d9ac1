// bitstream.hpp — configuration frames for the evolvable controller.
//
// The paper's reconfiguration is literal FPGA practice: the genome is "a
// bit-stream" that configures the walking state machine (§3.1), and the
// board carries a configuration ROM (§2). This module models that path:
// a genome is packed into a framed, CRC-protected configuration stream
// (the format a config ROM would hold) and unpacked on load, with
// corruption detected — the property a robot in the field depends on.
//
// A frame is a std::vector<bool>, one element per ROM bit, in the order
// the ConfigLoader streams them. Layout (LSB-first within each field):
//   magic   : 16  = 0x4C44 ("LD")
//   version : 8   = 1
//   width   : 8   = payload bit count (36 for a gait genome)
//   payload : `width` bits
//   crc     : 16  CRC-16/CCITT-FALSE over magic..payload, bytewise on the
//                 packed little-endian bit order
#pragma once

#include <cstdint>
#include <vector>

namespace leo::fpga {

inline constexpr std::uint16_t kFrameMagic = 0x4C44;
inline constexpr std::uint8_t kFrameVersion = 1;
/// Bits before the payload: magic, version and width.
inline constexpr std::uint32_t kFrameHeaderBits = 16 + 8 + 8;

/// Advances a CRC-16/CCITT-FALSE by one byte, MSB first: the polynomial
/// LFSR that both the software packer and the RTL config loader step.
[[nodiscard]] constexpr std::uint16_t crc16_update(std::uint16_t crc,
                                                   std::uint8_t byte) noexcept {
  crc = static_cast<std::uint16_t>(crc ^ (static_cast<std::uint16_t>(byte) << 8));
  for (int i = 0; i < 8; ++i) {
    crc = (crc & 0x8000)
              ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
              : static_cast<std::uint16_t>(crc << 1);
  }
  return crc;
}

/// Packs a payload of 1..255 bits into a configuration frame.
[[nodiscard]] std::vector<bool> pack_frame(const std::vector<bool>& payload);

/// Unpacks and validates a frame. Throws std::runtime_error on a bad
/// length, magic, version, width, or CRC.
[[nodiscard]] std::vector<bool> unpack_frame(const std::vector<bool>& frame);

/// Convenience for the 36-bit gait genome.
[[nodiscard]] std::vector<bool> pack_genome(std::uint64_t genome_bits);
[[nodiscard]] std::uint64_t unpack_genome(const std::vector<bool>& frame);

}  // namespace leo::fpga

// config_loader.hpp — the board's configuration-ROM boot path, in RTL.
//
// Paper §2: the FPGA board "is composed only of an FPGA (Xilinx
// XC4036EX), configuration ROM memory, a stabilized power supply ... and
// a clock". This module models the gait-configuration side of that path:
// a serial ROM streams a framed, CRC-protected bit-stream (the format of
// fpga/bitstream.hpp) into the chip one bit per clock; the loader FSM
// validates the header, shifts the payload into the genome register, and
// checks the CRC in hardware before asserting `valid` — so a corrupted
// ROM can never configure the walking controller with a garbage gait.
//
// Byte handling matches the software packer exactly: bits are streamed
// LSB-first, assembled into bytes, and the final partial byte of the
// CRC-covered body is zero-padded (tests assert software frames load
// bit-for-bit and that any corruption is caught).
#pragma once

#include <cstdint>
#include <vector>

#include "rtl/module.hpp"

namespace leo::fpga {

class ConfigLoader final : public rtl::Module {
 public:
  /// `rom` is the frame the serial PROM holds (from pack_frame /
  /// pack_genome). Streaming starts immediately after reset.
  ConfigLoader(rtl::Module* parent, std::string name, std::vector<bool> rom);

  /// Loaded payload (low bits; up to 48 significant).
  rtl::Wire<std::uint64_t> payload;
  /// High once the frame is fully shifted in and the CRC matched.
  rtl::Wire<bool> valid;
  /// High if the header or CRC check failed (terminal until reset).
  rtl::Wire<bool> error;
  /// High while bits are still streaming.
  rtl::Wire<bool> busy;

  void evaluate() override;
  void clock_edge() override;
  void reset() override;

  /// The status decode and payload forwarding read only these two
  /// registers; the whole shift pipeline lives in clock_edge().
  [[nodiscard]] rtl::Nets inputs() const override {
    return {&state_, &payload_reg_};
  }

  [[nodiscard]] rtl::Nets drives() const override {
    return {&payload, &valid, &error, &busy};
  }

  /// Shift registers, byte buffer, CRC LFSR and the FSM.
  [[nodiscard]] rtl::ResourceTally own_resources() const override;

 private:
  enum class State : std::uint8_t {
    kStreaming = 0,
    kValid,
    kError,
  };

  std::vector<bool> rom_;
  rtl::Reg<std::uint32_t> cursor_;      ///< next ROM bit index
  rtl::Reg<std::uint8_t> state_;
  rtl::Reg<std::uint64_t> header_;      ///< magic | version | width
  rtl::Reg<std::uint64_t> payload_reg_;
  rtl::Reg<std::uint16_t> crc_reg_;     ///< running CRC over the body
  rtl::Reg<std::uint16_t> crc_field_;   ///< trailing CRC being shifted in
  rtl::Reg<std::uint8_t> byte_buf_;     ///< byte assembly for the CRC
  rtl::Reg<std::uint8_t> byte_bits_;    ///< bits collected in byte_buf
};

}  // namespace leo::fpga

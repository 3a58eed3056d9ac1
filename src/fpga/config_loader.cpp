#include "fpga/config_loader.hpp"

#include "fpga/bitstream.hpp"

namespace leo::fpga {

ConfigLoader::ConfigLoader(rtl::Module* parent, std::string name,
                           std::vector<bool> rom)
    : rtl::Module(parent, std::move(name)),
      payload(this, "payload", 48),
      valid(this, "valid", 1),
      error(this, "error", 1),
      busy(this, "busy", 1),
      rom_(std::move(rom)),
      cursor_(this, "cursor", 10),
      state_(this, "state", 2),
      header_(this, "header", kFrameHeaderBits),
      payload_reg_(this, "payload_reg", 48),
      crc_reg_(this, "crc_reg", 16, 0xFFFF),
      crc_field_(this, "crc_field", 16),
      byte_buf_(this, "byte_buf", 8),
      byte_bits_(this, "byte_bits", 4) {}

void ConfigLoader::evaluate() {
  const auto state = static_cast<State>(state_.read());
  valid.write(state == State::kValid);
  error.write(state == State::kError);
  busy.write(state == State::kStreaming);
  payload.write(payload_reg_.read());
}

void ConfigLoader::clock_edge() {
  if (static_cast<State>(state_.read()) != State::kStreaming) return;

  const std::uint32_t cursor = cursor_.read();
  if (cursor >= rom_.size()) {
    state_.set_next(static_cast<std::uint8_t>(State::kError));  // truncated
    return;
  }
  const bool bit = rom_[cursor];

  // Header / payload width bookkeeping. The width field is only known
  // once the header has fully arrived.
  const auto width = static_cast<std::uint32_t>((header_.read() >> 24) & 0xFF);
  const bool header_done = cursor >= kFrameHeaderBits;
  const std::uint32_t body_bits = header_done ? kFrameHeaderBits + width : 0;

  if (!header_done) {
    header_.set_next(header_.read() |
                     (static_cast<std::uint64_t>(bit) << cursor));
  } else if (cursor < body_bits) {
    payload_reg_.set_next(
        payload_reg_.read() |
        (static_cast<std::uint64_t>(bit) << (cursor - kFrameHeaderBits)));
  } else {
    crc_field_.set_next(static_cast<std::uint16_t>(
        crc_field_.read() |
        (static_cast<std::uint16_t>(bit) << (cursor - body_bits))));
  }

  // Byte assembly + running CRC over the body (header + payload). The
  // body may end mid-byte; the final partial byte is zero-padded, like
  // the software packer.
  const bool in_body = !header_done || cursor < body_bits;
  std::uint16_t crc = crc_reg_.read();
  std::uint8_t buf = byte_buf_.read();
  std::uint8_t nbits = byte_bits_.read();
  if (in_body) {
    buf = static_cast<std::uint8_t>(buf | (static_cast<unsigned>(bit) << nbits));
    ++nbits;
    const bool body_ends_here = header_done && cursor + 1 == body_bits;
    if (nbits == 8 || body_ends_here) {
      crc = crc16_update(crc, buf);
      buf = 0;
      nbits = 0;
    }
    crc_reg_.set_next(crc);
    byte_buf_.set_next(buf);
    byte_bits_.set_next(nbits);
  }

  // Header validation the moment it is complete.
  if (cursor + 1 == kFrameHeaderBits) {
    const std::uint64_t header =
        header_.read() | (static_cast<std::uint64_t>(bit) << cursor);
    const auto magic = static_cast<std::uint16_t>(header & 0xFFFF);
    const auto version = static_cast<std::uint8_t>((header >> 16) & 0xFF);
    const auto w = static_cast<std::uint32_t>((header >> 24) & 0xFF);
    if (magic != kFrameMagic || version != kFrameVersion || w == 0 ||
        w > 48 || rom_.size() != kFrameHeaderBits + w + 16) {
      state_.set_next(static_cast<std::uint8_t>(State::kError));
      return;
    }
  }

  // Final bit: compare the streamed CRC with the computed one.
  if (header_done && cursor + 1 == body_bits + 16) {
    const std::uint16_t streamed = static_cast<std::uint16_t>(
        crc_field_.read() |
        (static_cast<std::uint16_t>(bit) << (cursor - body_bits)));
    state_.set_next(static_cast<std::uint8_t>(
        streamed == crc ? State::kValid : State::kError));
  }

  cursor_.set_next(cursor + 1);
}

void ConfigLoader::reset() {
  // Registers reset themselves; nothing else to do (the ROM persists).
}

rtl::ResourceTally ConfigLoader::own_resources() const {
  rtl::ResourceTally t = Module::own_resources();
  t.lut4 += 16 /* CRC LFSR taps */ + 12 /* compare + FSM */;
  return t;
}

}  // namespace leo::fpga

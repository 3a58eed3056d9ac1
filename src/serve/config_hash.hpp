// config_hash.hpp — canonical bytes and cache key for an EvolutionConfig.
//
// core::evolve() is documented deterministic in (seed, config contents), so
// a run's result is fully determined by a canonical encoding of the config
// (seed included). The encoding below is the single source of truth for
//   * the deterministic result cache key (FNV-1a 64 over the bytes), and
//   * the config block inside checkpoint snapshots (it is decodable).
// Every field is written in a fixed order with a fixed width; adding a
// field therefore changes kConfigCodecVersion, which salts the hash — old
// keys and snapshots can never alias new ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/evolution_engine.hpp"

namespace leo::serve {

/// Bumped whenever the canonical encoding changes shape.
inline constexpr std::uint32_t kConfigCodecVersion = 1;

namespace detail {

/// Little-endian byte sink for canonical encodings.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(bytes_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked reader over a canonical encoding; throws
/// std::runtime_error on truncation.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes) noexcept
      : ByteReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();

  [[nodiscard]] std::size_t remaining() const noexcept {
    return size_ - offset_;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

}  // namespace detail

/// Canonical bytes of the config (seed included).
[[nodiscard]] std::vector<std::uint8_t> encode_config(
    const core::EvolutionConfig& config);

/// Inverse of encode_config(); throws std::runtime_error on malformed or
/// truncated input.
[[nodiscard]] core::EvolutionConfig decode_config(detail::ByteReader& reader);

/// Deterministic result-cache key: FNV-1a 64 over the canonical bytes,
/// salted with kConfigCodecVersion. Any field change — seed, backend, GA
/// or GAP parameter, fitness weight or rule toggle — changes the key.
/// Hashes the bytes as they are written, so it allocates nothing.
[[nodiscard]] std::uint64_t config_key(const core::EvolutionConfig& config);

/// "0x"-prefixed hex form of a key, for logs and CLI output.
[[nodiscard]] std::string key_to_string(std::uint64_t key);

}  // namespace leo::serve

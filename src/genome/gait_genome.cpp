#include "genome/gait_genome.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace leo::genome {

namespace {
constexpr std::size_t gene_offset(std::size_t step, std::size_t leg) {
  return step * kNumLegs * kBitsPerLegStep + leg * kBitsPerLegStep;
}

const char* leg_label(std::size_t leg) {
  static constexpr const char* kLabels[kNumLegs] = {"L-front", "L-mid",
                                                    "L-rear",  "R-front",
                                                    "R-mid",   "R-rear"};
  return kLabels[leg];
}
}  // namespace

GaitGenome GaitGenome::from_bits(std::uint64_t bits) {
  if ((bits & ~kGenomeMask) != 0) {
    throw std::invalid_argument("GaitGenome: bits above position 35 set");
  }
  GaitGenome g;
  for (std::size_t s = 0; s < kNumSteps; ++s) {
    for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
      const auto raw =
          static_cast<std::uint8_t>((bits >> gene_offset(s, leg)) & 0x7u);
      g.steps_[s].legs[leg] = LegGene::unpack(raw);
    }
  }
  return g;
}

std::uint64_t GaitGenome::to_bits() const noexcept {
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < kNumSteps; ++s) {
    for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
      bits |= static_cast<std::uint64_t>(steps_[s].legs[leg].pack())
              << gene_offset(s, leg);
    }
  }
  return bits;
}

std::string GaitGenome::to_hex() const {
  char text[sizeof "0x000000000"];
  std::snprintf(text, sizeof text, "0x%09llx",
                static_cast<unsigned long long>(to_bits()));
  return text;
}

std::string GaitGenome::describe() const {
  std::ostringstream out;
  for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
    out << leg_label(leg) << ":";
    for (std::size_t s = 0; s < kNumSteps; ++s) {
      const LegGene& g = steps_[s].legs[leg];
      out << "  step" << s << " " << (g.lift_first ? "up" : "down") << "/"
          << (g.forward ? "fwd" : "back") << "/"
          << (g.lift_last ? "up" : "down");
    }
    out << "\n";
  }
  return out.str();
}

std::string GaitGenome::diagram() const {
  // Columns: step0 {v0, h, v1}, step1 {v0, h, v1}. A leg is drawn raised
  // ('^') in the vertical columns per its target, and in the horizontal
  // column per lift_first (the position it holds while translating).
  std::ostringstream out;
  out << "          step 0      step 1\n";
  out << "          v0 h  v1    v0 h  v1\n";
  for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
    out << leg_label(leg);
    for (std::size_t pad = std::string(leg_label(leg)).size(); pad < 10; ++pad) {
      out << ' ';
    }
    for (std::size_t s = 0; s < kNumSteps; ++s) {
      const LegGene& g = steps_[s].legs[leg];
      out << (g.lift_first ? "^" : "_") << "  "
          << (g.forward ? ">" : "<") << "  "
          << (g.lift_last ? "^" : "_");
      if (s == 0) out << "    ";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace leo::genome

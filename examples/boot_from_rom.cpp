// boot_from_rom — the board's power-on path (paper §2: "an FPGA (Xilinx
// XC4036EX), configuration ROM memory, a stabilized power supply ... and
// a clock").
//
// A serial configuration ROM holds a CRC-protected frame with a gait
// genome. At power-on the ConfigLoader streams it in one bit per clock,
// verifies the CRC in hardware, and only then is the walking controller
// configured and released. A corrupted ROM is demonstrated to be
// rejected — the robot refuses to walk garbage.
//
//   ./boot_from_rom [genome]
#include <cstdio>
#include <memory>
#include <vector>

#include "core/discipulus.hpp"
#include "example_args.hpp"
#include "fpga/bitstream.hpp"
#include "fpga/config_loader.hpp"
#include "genome/gait_analysis.hpp"
#include "genome/known_gaits.hpp"
#include "rtl/simulator.hpp"

namespace {

using namespace leo;

/// Board-level top: the configuration ROM path feeding Discipulus.
class Board final : public rtl::Module {
 public:
  Board(std::vector<bool> rom, core::DiscipulusParams params)
      : rtl::Module(nullptr, "board"),
        loader(this, "config_rom", std::move(rom)),
        discipulus(this, "discipulus", params, /*rng_seed=*/1) {}

  void evaluate() override {
    // The loader gates the external-genome port: the controller only
    // runs once the frame verified.
    discipulus.use_external_genome.write(loader.valid.read());
    discipulus.external_genome.write(loader.payload.read());
  }
  [[nodiscard]] rtl::Nets inputs() const override {
    return {&loader.valid, &loader.payload};
  }
  [[nodiscard]] rtl::Nets drives() const override {
    return {&discipulus.use_external_genome, &discipulus.external_genome};
  }

  fpga::ConfigLoader loader;
  core::DiscipulusTop discipulus;
};

void boot(const char* label, const std::vector<bool>& rom) {
  core::DiscipulusParams params;
  params.controller.cycles_per_phase = 50;
  Board board(rom, params);
  rtl::Simulator sim(board);
  sim.run(rom.size() + 4);  // one bit per clock plus settling

  std::printf("%s: after %zu boot cycles: valid=%d error=%d",
              label, rom.size() + 4, board.loader.valid.read() ? 1 : 0,
              board.loader.error.read() ? 1 : 0);
  if (board.loader.valid.read()) {
    const auto g = genome::GaitGenome::from_bits(board.loader.payload.read());
    std::printf(" -> controller configured with %s (%s)",
                g.to_hex().c_str(),
                genome::analyze(g).describe().c_str());
    sim.run(130);  // 2.6 phase periods: the sequencer is visibly running
    std::printf("; sequencer at phase %u",
                board.discipulus.controller().phase.read());
  } else {
    sim.run(300);
    std::printf(" -> controller held in reset (phase %u)",
                board.discipulus.controller().phase.read());
  }
  std::printf("\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t genome_bits = leo::genome::tripod_gait().to_bits();
  if (argc > 1 && !leo::examples::parse_number(argv[1], genome_bits)) {
    return leo::examples::usage("boot_from_rom [genome]");
  }
  if (genome_bits >= leo::genome::kSearchSpace) {
    std::fprintf(stderr, "genome must fit in 36 bits\n");
    return 1;
  }

  const std::vector<bool> good = leo::fpga::pack_genome(genome_bits);
  boot("clean ROM", good);

  std::vector<bool> corrupt = good;
  corrupt[40].flip();  // one flipped payload bit
  boot("ROM with one flipped bit", corrupt);
  return 0;
}

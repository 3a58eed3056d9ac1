#include "core/discipulus.hpp"

namespace leo::core {

DiscipulusTop::DiscipulusTop(rtl::Module* parent, std::string name,
                             DiscipulusParams params, std::uint64_t rng_seed)
    : rtl::Module(parent, std::move(name)),
      ground_sensors(this, "ground_sensors", 6),
      obstacle_sensors(this, "obstacle_sensors", 6),
      use_external_genome(this, "use_external_genome", 1),
      external_genome(this, "external_genome",
                      static_cast<unsigned>(genome::kGenomeBits)),
      evolution_done(this, "evolution_done", 1),
      gap_(this, "gap", params.gap, rng_seed),
      controller_(this, "walking_controller", params.controller) {}

void DiscipulusTop::evaluate() {
  evolution_done.write(gap_.done.read());

  if (use_external_genome.read()) {
    controller_.genome.write(external_genome.read());
    controller_.run.write(true);
  } else {
    controller_.genome.write(gap_.best_genome_bus.read());
    controller_.run.write(gap_.done.read());
  }
  controller_.ground_sensors.write(ground_sensors.read());
  controller_.obstacle_sensors.write(obstacle_sensors.read());
}

rtl::ResourceTally DiscipulusTop::own_resources() const {
  rtl::ResourceTally t = Module::own_resources();
  t.lut4 += genome::kGenomeBits / 2 + 4;  // genome mux + run gating
  return t;
}

}  // namespace leo::core

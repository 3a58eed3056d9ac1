// diversity.hpp — the population diversity measure.
//
// The GAP has no explicit diversity maintenance; its 15 mutations per
// generation are what keeps the 32-individual population from collapsing
// onto one genotype. This measure makes that visible: the engine
// records it per generation (GenerationStats) and the operator
// ablations show the collapse when mutation is removed.
#pragma once

#include "ga/individual.hpp"

namespace leo::ga {

/// Mean pairwise Hamming distance between genomes (0 when all identical;
/// about 18, half the genome, for uniform random populations).
[[nodiscard]] double mean_pairwise_hamming(const Population& pop);

}  // namespace leo::ga

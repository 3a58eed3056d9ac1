// diversity.hpp — population diversity measures.
//
// The GAP has no explicit diversity maintenance; its 15 mutations per
// generation are what keeps the 32-individual population from collapsing
// onto one genotype. These measures make that visible: the engine
// records them per generation (GenerationStats) and the operator
// ablations show the collapse when mutation is removed.
#pragma once

#include <cstddef>

#include "ga/individual.hpp"

namespace leo::ga {

/// Mean pairwise Hamming distance between genomes (0 when all identical;
/// expected width/2 for uniform random populations).
[[nodiscard]] double mean_pairwise_hamming(const Population& pop);

/// Mean per-bit Shannon entropy over the `width` loci, in bits (1.0 =
/// every locus undecided, 0.0 = population fully converged).
[[nodiscard]] double mean_bit_entropy(const Population& pop, std::size_t width);

}  // namespace leo::ga

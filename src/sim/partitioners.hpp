// Registration of the simulated-machine executions with the core
// PartitionerRegistry.
//
// Keys added by register_sim_partitioners():
//
//   "phf:oracle"    PHF with the idealized O(1) free-processor manager
//   "phf:ba_prime"  PHF with the BA'-based manager (Section 3.4)
//   "phf:probe"     PHF with the randomized-probing manager
//   "sim:ba"        Algorithm BA executed on the simulated machine
//   "sim:ba_star"   Algorithm BA' executed on the simulated machine
//   "sim:ba_hf"     Algorithm BA-HF executed on the simulated machine
//
// Every sim partitioner returns the same partition as its core counterpart
// ("phf:*" == HF, see src/sim/phf.hpp; "sim:*" runs core's BA descent, see
// src/sim/par_ba.hpp) on the default CostModel{}.  The simulated machine's
// time and communication (SimMetrics) come from the simulate calls
// themselves (phf_simulate, ba_simulate, ba_hf_simulate), which is how the
// timing experiment measures them under its own cost model.
#pragma once

namespace lbb::sim {

/// Adds the sim-layer partitioners to PartitionerRegistry::instance().
/// Idempotent and cheap; call before resolving "phf:*" / "sim:*" names
/// (the lbb_bench driver and the conformance tests call it at startup).
void register_sim_partitioners();

}  // namespace lbb::sim

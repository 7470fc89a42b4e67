#include "sim/partitioners.hpp"

#include <memory>
#include <utility>

#include "core/partitioner.hpp"
#include "sim/par_ba.hpp"
#include "sim/phf.hpp"

namespace lbb::sim {

namespace {

using lbb::core::AnyProblem;
using lbb::core::BuiltinKind;
using lbb::core::Partition;
using lbb::core::Partitioner;
using lbb::core::PartitionerConfig;
using lbb::core::PartitionerInfo;
using lbb::core::PartitionerRegistry;
using lbb::core::RunContext;

class PhfPartitioner final : public Partitioner {
 public:
  PhfPartitioner(PartitionerInfo info, FreeProcManager manager,
                 const PartitionerConfig& config)
      : info_(std::move(info)), manager_(manager), config_(config) {}

  [[nodiscard]] const PartitionerInfo& info() const override { return info_; }

  [[nodiscard]] Partition<AnyProblem> run(RunContext& ctx, AnyProblem problem,
                                          std::int32_t n) const override {
    ctx.checkpoint();
    PhfSimOptions opts;
    opts.manager = manager_;
    opts.partition = config_.options;
    // With config.seed == 0 the probing RNG follows the context seed, so a
    // per-trial context (the experiment engine seeds one per instance)
    // reproduces the probe sequence of a direct
    // phf_simulate(probe_seed = instance_seed) call.
    opts.probe_seed = config_.seed != 0 ? config_.seed : ctx.seed();
    return phf_simulate(std::move(problem), n, config_.alpha, CostModel{},
                        opts)
        .partition;
  }

  /// PHF produces HF's partition, so HF's bound applies.
  [[nodiscard]] double ratio_bound(std::int32_t n) const override {
    return core::builtin_ratio_bound(BuiltinKind::kHf, config_.alpha,
                                     config_.beta, n);
  }

 private:
  PartitionerInfo info_;
  FreeProcManager manager_;
  PartitionerConfig config_;
};

class SimBaPartitioner final : public Partitioner {
 public:
  SimBaPartitioner(PartitionerInfo info, BuiltinKind kind,
                   const PartitionerConfig& config)
      : info_(std::move(info)), kind_(kind), config_(config) {}

  [[nodiscard]] const PartitionerInfo& info() const override { return info_; }

  [[nodiscard]] Partition<AnyProblem> run(RunContext& ctx, AnyProblem problem,
                                          std::int32_t n) const override {
    ctx.checkpoint();
    if (kind_ == BuiltinKind::kBaStar) {
      return ba_star_simulate(std::move(problem), n, config_.alpha,
                              CostModel{}, config_.options)
          .partition;
    }
    if (kind_ == BuiltinKind::kBaHf) {
      return ba_hf_simulate(std::move(problem), n, config_.alpha,
                            config_.beta, CostModel{}, config_.options)
          .partition;
    }
    return ba_simulate(std::move(problem), n, CostModel{}, config_.options)
        .partition;
  }

  /// The simulation produces the sequential family's partition, so its
  /// bound applies.
  [[nodiscard]] double ratio_bound(std::int32_t n) const override {
    return core::builtin_ratio_bound(kind_, config_.alpha, config_.beta, n);
  }

 private:
  PartitionerInfo info_;
  BuiltinKind kind_;  ///< kBa, kBaStar or kBaHf
  PartitionerConfig config_;
};

/// A phf:* entry (kind kHf: PHF produces HF's partition) or a sim:* one.
struct SimEntry {
  PartitionerInfo info;
  BuiltinKind kind;
  FreeProcManager manager;  ///< phf:* only
};

const SimEntry kSimEntries[] = {
    {{"phf:oracle", "PHF(oracle)",
      "parallel HF, idealized O(1) free-processor manager (Figure 2)"},
     BuiltinKind::kHf,
     FreeProcManager::kOracle},
    {{"phf:ba_prime", "PHF(BA')",
      "parallel HF, BA'-based free-processor manager (Section 3.4)"},
     BuiltinKind::kHf,
     FreeProcManager::kBaPrime},
    {{"phf:probe", "PHF(probe)",
      "parallel HF, randomized-probing (work-stealing) manager"},
     BuiltinKind::kHf,
     FreeProcManager::kRandomProbe},
    {{"sim:ba", "BA(sim)",
      "Algorithm BA on the simulated machine (time + communication metrics)"},
     BuiltinKind::kBa,
     FreeProcManager::kOracle},
    {{"sim:ba_star", "BA*(sim)", "Algorithm BA' on the simulated machine"},
     BuiltinKind::kBaStar,
     FreeProcManager::kOracle},
    {{"sim:ba_hf", "BA-HF(sim)",
      "Algorithm BA-HF on the simulated machine (sequential-HF second phase)"},
     BuiltinKind::kBaHf,
     FreeProcManager::kOracle},
};

std::unique_ptr<Partitioner> make_from_entry(const SimEntry& entry,
                                             const PartitionerConfig& config) {
  if (entry.kind == BuiltinKind::kHf) {
    return std::make_unique<PhfPartitioner>(entry.info, entry.manager, config);
  }
  return std::make_unique<SimBaPartitioner>(entry.info, entry.kind, config);
}

}  // namespace

void register_sim_partitioners() {
  static const bool done = [] {
    auto& registry = PartitionerRegistry::instance();
    for (const SimEntry& entry : kSimEntries) {
      registry.add(entry.info, [&entry](const PartitionerConfig& config) {
        return make_from_entry(entry, config);
      });
    }
    return true;
  }();
  (void)done;
}

}  // namespace lbb::sim

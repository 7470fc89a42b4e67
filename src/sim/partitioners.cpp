#include "sim/partitioners.hpp"

#include <memory>
#include <utility>

#include "core/partitioner.hpp"
#include "sim/par_ba.hpp"
#include "sim/phf.hpp"

namespace lbb::sim {

namespace {

using lbb::core::AnyProblem;
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
  [[nodiscard]] double ratio_bound(std::int32_t) const override {
    return lbb::core::hf_ratio_bound(config_.alpha);
  }

 private:
  PartitionerInfo info_;
  FreeProcManager manager_;
  PartitionerConfig config_;
};

enum class SimBaKind { kBa, kBaStar, kBaHf };

class SimBaPartitioner final : public Partitioner {
 public:
  SimBaPartitioner(PartitionerInfo info, SimBaKind kind,
                   const PartitionerConfig& config)
      : info_(std::move(info)), kind_(kind), config_(config) {}

  [[nodiscard]] const PartitionerInfo& info() const override { return info_; }

  [[nodiscard]] Partition<AnyProblem> run(RunContext& ctx, AnyProblem problem,
                                          std::int32_t n) const override {
    ctx.checkpoint();
    switch (kind_) {
      case SimBaKind::kBaStar:
        return ba_star_simulate(std::move(problem), n, config_.alpha,
                                CostModel{}, config_.options)
            .partition;
      case SimBaKind::kBaHf:
        return ba_hf_simulate(std::move(problem), n, config_.alpha,
                              config_.beta, CostModel{}, config_.options)
            .partition;
      case SimBaKind::kBa:
        break;
    }
    return ba_simulate(std::move(problem), n, CostModel{}, config_.options)
        .partition;
  }

  [[nodiscard]] double ratio_bound(std::int32_t n) const override {
    switch (kind_) {
      case SimBaKind::kBa:
        return lbb::core::ba_ratio_bound(config_.alpha, n);
      case SimBaKind::kBaStar:
        return lbb::core::ba_star_ratio_bound(config_.alpha, n);
      case SimBaKind::kBaHf:
        return lbb::core::ba_hf_ratio_bound(config_.alpha, config_.beta, n);
    }
    return 0.0;
  }

 private:
  PartitionerInfo info_;
  SimBaKind kind_;
  PartitionerConfig config_;
};

struct SimEntry {
  PartitionerInfo info;
  bool is_phf;
  FreeProcManager manager;
  SimBaKind ba_kind;
};

const SimEntry kSimEntries[] = {
    {{"phf:oracle", "PHF(oracle)",
      "parallel HF, idealized O(1) free-processor manager (Figure 2)"},
     true,
     FreeProcManager::kOracle,
     SimBaKind::kBa},
    {{"phf:ba_prime", "PHF(BA')",
      "parallel HF, BA'-based free-processor manager (Section 3.4)"},
     true,
     FreeProcManager::kBaPrime,
     SimBaKind::kBa},
    {{"phf:probe", "PHF(probe)",
      "parallel HF, randomized-probing (work-stealing) manager"},
     true,
     FreeProcManager::kRandomProbe,
     SimBaKind::kBa},
    {{"sim:ba", "BA(sim)",
      "Algorithm BA on the simulated machine (time + communication metrics)"},
     false,
     FreeProcManager::kOracle,
     SimBaKind::kBa},
    {{"sim:ba_star", "BA*(sim)", "Algorithm BA' on the simulated machine"},
     false,
     FreeProcManager::kOracle,
     SimBaKind::kBaStar},
    {{"sim:ba_hf", "BA-HF(sim)",
      "Algorithm BA-HF on the simulated machine (sequential-HF second phase)"},
     false,
     FreeProcManager::kOracle,
     SimBaKind::kBaHf},
};

std::unique_ptr<Partitioner> make_from_entry(const SimEntry& entry,
                                             const PartitionerConfig& config) {
  if (entry.is_phf) {
    return std::make_unique<PhfPartitioner>(entry.info, entry.manager, config);
  }
  return std::make_unique<SimBaPartitioner>(entry.info, entry.ba_kind, config);
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

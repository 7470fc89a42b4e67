#include "sim/partitioners.hpp"

#include <memory>
#include <utility>

#include "core/partitioner.hpp"
#include "sim/metrics.hpp"
#include "sim/par_ba.hpp"
#include "sim/phf.hpp"
#include "stats/alloc_stats.hpp"

namespace lbb::sim {

namespace {

using lbb::core::AnyProblem;
using lbb::core::Partition;
using lbb::core::Partitioner;
using lbb::core::PartitionerConfig;
using lbb::core::PartitionerInfo;
using lbb::core::PartitionerRegistry;
using lbb::core::RunContext;
using lbb::core::UnknownPartitionerError;

/// Pushes one simulated execution's metrics into the context: core
/// bisection accounting directly, sim-specific numbers as named counters.
/// `allocs` is the allocation delta measured around the simulate call
/// (all-zero unless the binary links the allocation probe).
void report(RunContext& ctx, const SimMetrics& m,
            const lbb::stats::AllocStats& allocs) {
  ctx.metrics.partitions += 1;
  ctx.metrics.bisections += m.bisections;
  ctx.metrics.alloc_count += allocs.count;
  ctx.metrics.alloc_bytes += allocs.bytes;
  ctx.counter("alloc.count", static_cast<double>(allocs.count));
  ctx.counter("alloc.bytes", static_cast<double>(allocs.bytes));
  ctx.counter("sim.makespan", m.makespan);
  ctx.counter("sim.messages", static_cast<double>(m.messages));
  ctx.counter("sim.collective_ops", static_cast<double>(m.collective_ops));
  ctx.counter("sim.phase1_end", m.phase1_end);
  ctx.counter("sim.phase2_iterations",
              static_cast<double>(m.phase2_iterations));
  ctx.counter("sim.mop_up_iterations",
              static_cast<double>(m.mop_up_iterations));
  ctx.counter("sim.failed_probes", static_cast<double>(m.failed_probes));
  ctx.counter("sim.retries", static_cast<double>(m.retries));
  ctx.counter("sim.lost_messages", static_cast<double>(m.lost_messages));
  ctx.counter("sim.delayed_messages",
              static_cast<double>(m.delayed_messages));
  ctx.counter("sim.backoff_time", m.backoff_time);
}

class PhfPartitioner final : public Partitioner {
 public:
  PhfPartitioner(PartitionerInfo info, FreeProcManager manager,
                 const PartitionerConfig& config, const CostModel& cost)
      : info_(std::move(info)), manager_(manager), config_(config),
        cost_(cost) {}

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
    const auto allocs_before = lbb::stats::alloc_stats();
    auto result =
        phf_simulate(std::move(problem), n, config_.alpha, cost_, opts);
    report(ctx, result.metrics, lbb::stats::alloc_stats() - allocs_before);
    return std::move(result.partition);
  }

  /// PHF produces HF's partition, so HF's bound applies.
  [[nodiscard]] double ratio_bound(std::int32_t) const override {
    return lbb::core::hf_ratio_bound(config_.alpha);
  }

 private:
  PartitionerInfo info_;
  FreeProcManager manager_;
  PartitionerConfig config_;
  CostModel cost_;
};

enum class SimBaKind { kBa, kBaStar, kBaHf };

class SimBaPartitioner final : public Partitioner {
 public:
  SimBaPartitioner(PartitionerInfo info, SimBaKind kind,
                   const PartitionerConfig& config, const CostModel& cost)
      : info_(std::move(info)), kind_(kind), config_(config), cost_(cost) {}

  [[nodiscard]] const PartitionerInfo& info() const override { return info_; }

  [[nodiscard]] Partition<AnyProblem> run(RunContext& ctx, AnyProblem problem,
                                          std::int32_t n) const override {
    ctx.checkpoint();
    const auto allocs_before = lbb::stats::alloc_stats();
    SimResult<AnyProblem> result = [&] {
      switch (kind_) {
        case SimBaKind::kBaStar:
          return ba_star_simulate(std::move(problem), n, config_.alpha, cost_,
                                  config_.options);
        case SimBaKind::kBaHf:
          return ba_hf_simulate(std::move(problem), n, config_.alpha,
                                config_.beta, cost_, config_.options);
        case SimBaKind::kBa:
          break;
      }
      return ba_simulate(std::move(problem), n, cost_, config_.options);
    }();
    report(ctx, result.metrics, lbb::stats::alloc_stats() - allocs_before);
    return std::move(result.partition);
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
  CostModel cost_;
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
                                             const PartitionerConfig& config,
                                             const CostModel& cost) {
  if (entry.is_phf) {
    return std::make_unique<PhfPartitioner>(entry.info, entry.manager, config,
                                            cost);
  }
  return std::make_unique<SimBaPartitioner>(entry.info, entry.ba_kind, config,
                                            cost);
}

}  // namespace

std::unique_ptr<Partitioner> make_sim_partitioner(
    std::string_view name, const PartitionerConfig& config,
    const CostModel& cost) {
  for (const SimEntry& entry : kSimEntries) {
    if (entry.info.name == name) return make_from_entry(entry, config, cost);
  }
  std::vector<std::string> known;
  for (const SimEntry& entry : kSimEntries) known.push_back(entry.info.name);
  throw UnknownPartitionerError(name, std::move(known));
}

void register_sim_partitioners() {
  static const bool done = [] {
    auto& registry = PartitionerRegistry::instance();
    for (const SimEntry& entry : kSimEntries) {
      registry.add(entry.info, [&entry](const PartitionerConfig& config) {
        return make_from_entry(entry, config, CostModel{});
      });
    }
    return true;
  }();
  (void)done;
}

}  // namespace lbb::sim

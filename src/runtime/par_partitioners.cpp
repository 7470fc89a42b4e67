#include "runtime/par_partitioners.hpp"

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/partitioner.hpp"
#include "core/sync.hpp"
#include "runtime/par_partition.hpp"

namespace lbb::runtime {

namespace {

using lbb::core::AnyProblem;
using lbb::core::BuiltinKind;
using lbb::core::Partition;
using lbb::core::Partitioner;
using lbb::core::PartitionerConfig;
using lbb::core::PartitionerInfo;
using lbb::core::PartitionerRegistry;
using lbb::core::RunContext;

class ParPartitioner final : public Partitioner {
 public:
  ParPartitioner(PartitionerInfo info, BuiltinKind kind,
                 const PartitionerConfig& config)
      : info_(std::move(info)), kind_(kind), config_(config) {}

  [[nodiscard]] const PartitionerInfo& info() const override { return info_; }

  [[nodiscard]] Partition<AnyProblem> run(RunContext& ctx, AnyProblem problem,
                                          std::int32_t n) const override {
    ctx.checkpoint();
    ThreadPool& pool = shared_pool(config_.threads);
    ParOptions opt;
    opt.partition = config_.options;
    if (kind_ == BuiltinKind::kBaStar) {
      return par_ba_star_partition(pool, std::move(problem), n,
                                   config_.alpha, opt);
    }
    if (kind_ == BuiltinKind::kBaHf) {
      return par_ba_hf_partition(
          pool, std::move(problem), n,
          core::BaHfParams{config_.alpha, config_.beta}, opt);
    }
    return par_ba_partition(pool, std::move(problem), n, opt);
  }

  /// Identical output to the sequential family, so its bound applies.
  [[nodiscard]] double ratio_bound(std::int32_t n) const override {
    return core::builtin_ratio_bound(kind_, config_.alpha, config_.beta, n);
  }

 private:
  PartitionerInfo info_;
  BuiltinKind kind_;  ///< kBa, kBaStar or kBaHf
  PartitionerConfig config_;
};

struct ParEntry {
  PartitionerInfo info;
  BuiltinKind kind;
};

const ParEntry kParEntries[] = {
    {{"par:ba", "BA(par)",
      "Algorithm BA on the thread pool (byte-identical to ba)"},
     BuiltinKind::kBa},
    {{"par:ba_star", "BA*(par)",
      "Algorithm BA' on the thread pool (phase-1 pruning)"},
     BuiltinKind::kBaStar},
    {{"par:ba_hf", "BA-HF(par)",
      "Algorithm BA-HF on the thread pool"},
     BuiltinKind::kBaHf},
};

}  // namespace

namespace {

/// Process-wide cache of one ThreadPool per thread count.  Pools
/// stay alive until shutdown_shared_pools() or the cache's own exit-time
/// destruction (first use is after the PartitionerRegistry singleton
/// exists, so this static dies before the registry -- see the lifetime
/// contract in par_partitioners.hpp).
struct PoolCache {
  lbb::core::Mutex mu;
  std::map<std::int32_t, std::unique_ptr<ThreadPool>> pools
      LBB_GUARDED_BY(mu);
};

PoolCache& pool_cache() {
  static PoolCache cache;
  return cache;
}

}  // namespace

ThreadPool& shared_pool(std::int32_t threads) {
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw != 0 ? static_cast<std::int32_t>(hw) : 1;
  }
  PoolCache& cache = pool_cache();
  lbb::core::MutexLock lock(cache.mu);
  auto& slot = cache.pools[threads];
  if (slot == nullptr) {
    slot = std::make_unique<ThreadPool>(static_cast<unsigned>(threads));
  }
  return *slot;
}

void shutdown_shared_pools() {
  PoolCache& cache = pool_cache();
  std::map<std::int32_t, std::unique_ptr<ThreadPool>> drained;
  {
    lbb::core::MutexLock lock(cache.mu);
    drained.swap(cache.pools);
  }
  // Pool destructors stop and join their workers OUTSIDE the cache lock:
  // a worker unwinding through shared_pool() must be able to take it.
  drained.clear();
}

void register_par_partitioners() {
  static const bool done = [] {
    auto& registry = PartitionerRegistry::instance();
    for (const ParEntry& entry : kParEntries) {
      registry.add(entry.info, [&entry](const PartitionerConfig& config) {
        return std::make_unique<ParPartitioner>(entry.info, entry.kind,
                                                config);
      });
    }
    return true;
  }();
  (void)done;
}

}  // namespace lbb::runtime

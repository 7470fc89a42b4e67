#include "runtime/par_partitioners.hpp"

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bounds.hpp"
#include "core/partitioner.hpp"
#include "core/sync.hpp"
#include "runtime/par_partition.hpp"
#include "stats/alloc_stats.hpp"

namespace lbb::runtime {

namespace {

using lbb::core::AnyProblem;
using lbb::core::Partition;
using lbb::core::Partitioner;
using lbb::core::PartitionerConfig;
using lbb::core::PartitionerInfo;
using lbb::core::PartitionerRegistry;
using lbb::core::RunContext;

enum class ParFamily { kBa, kBaStar, kBaHf };

class ParPartitioner final : public Partitioner {
 public:
  ParPartitioner(PartitionerInfo info, ParFamily family,
                 const PartitionerConfig& config)
      : info_(std::move(info)), family_(family), config_(config) {}

  [[nodiscard]] const PartitionerInfo& info() const override { return info_; }

  [[nodiscard]] Partition<AnyProblem> run(RunContext& ctx, AnyProblem problem,
                                          std::int32_t n) const override {
    ctx.checkpoint();
    ThreadPool& pool = shared_pool(config_.threads);
    ParOptions opt;
    opt.partition = config_.options;
    ParStats stats;
    // Caller-side allocations measured here; worker-side ones arrive
    // through stats.alloc_* (each frame measures its worker's delta -- see
    // detail::run_frame).
    const auto allocs_before = lbb::stats::alloc_stats();
    Partition<AnyProblem> out = [&] {
      switch (family_) {
        case ParFamily::kBaStar:
          return par_ba_star_partition(pool, std::move(problem), n,
                                       config_.alpha, opt, &stats);
        case ParFamily::kBaHf:
          return par_ba_hf_partition(
              pool, std::move(problem), n,
              core::BaHfParams{config_.alpha, config_.beta}, opt, &stats);
        case ParFamily::kBa:
          break;
      }
      return par_ba_partition(pool, std::move(problem), n, opt, &stats);
    }();
    const auto allocs = lbb::stats::alloc_stats() - allocs_before;
    ctx.metrics.partitions += 1;
    ctx.metrics.bisections += out.bisections;
    ctx.metrics.alloc_count += allocs.count + stats.alloc_count;
    ctx.metrics.alloc_bytes += allocs.bytes + stats.alloc_bytes;
    ctx.counter("alloc.count",
                static_cast<double>(allocs.count + stats.alloc_count));
    ctx.counter("alloc.bytes",
                static_cast<double>(allocs.bytes + stats.alloc_bytes));
    ctx.counter("par.threads", static_cast<double>(pool.size()));
    ctx.counter("par.grain", static_cast<double>(stats.grain));
    ctx.counter("par.spawns", static_cast<double>(stats.spawns));
    ctx.counter("par.idle_ns", static_cast<double>(stats.idle_ns));
    return out;
  }

  /// Identical output to the sequential family, so its bound applies.
  [[nodiscard]] double ratio_bound(std::int32_t n) const override {
    switch (family_) {
      case ParFamily::kBa:
        return lbb::core::ba_ratio_bound(config_.alpha, n);
      case ParFamily::kBaStar:
        return lbb::core::ba_star_ratio_bound(config_.alpha, n);
      case ParFamily::kBaHf:
        return lbb::core::ba_hf_ratio_bound(config_.alpha, config_.beta, n);
    }
    return 0.0;
  }

 private:
  PartitionerInfo info_;
  ParFamily family_;
  PartitionerConfig config_;
};

struct ParEntry {
  PartitionerInfo info;
  ParFamily family;
};

const ParEntry kParEntries[] = {
    {{"par:ba", "BA(par)",
      "Algorithm BA on the thread pool (byte-identical to ba)"},
     ParFamily::kBa},
    {{"par:ba_star", "BA*(par)",
      "Algorithm BA' on the thread pool (phase-1 pruning)"},
     ParFamily::kBaStar},
    {{"par:ba_hf", "BA-HF(par)",
      "Algorithm BA-HF on the thread pool"},
     ParFamily::kBaHf},
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
        return std::make_unique<ParPartitioner>(entry.info, entry.family,
                                                config);
      });
    }
    return true;
  }();
  (void)done;
}

}  // namespace lbb::runtime

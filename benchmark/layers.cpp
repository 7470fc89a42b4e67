// Single-layer probes: the per-layer numbers no workload produces on its
// own, each timed around calls into one layer's public functions.  Run only
// by the traced binary, after the workload.
#include <algorithm>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "core/detail/scratch.hpp"
#include "core/hf.hpp"
#include "core/partitioner.hpp"
#include "core/workspace.hpp"
#include "experiments/batch_trials.hpp"
#include "harness.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "stats/percentiles.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "stats/tail_accumulator.hpp"

namespace lbb::perf {
namespace {

using problems::AlphaDistribution;
using problems::SyntheticProblem;
using Workspace = core::TrialWorkspace<SyntheticProblem>;

const AlphaDistribution& fig5() {
  static const AlphaDistribution dist = AlphaDistribution::uniform(0.1, 0.5);
  return dist;
}

const std::vector<std::string>& algos() {
  static const std::vector<std::string> names = {"ba", "ba_star", "ba_hf",
                                                 "hf"};
  return names;
}

std::unique_ptr<core::Partitioner> create(const std::string& algo) {
  core::PartitionerConfig pc;
  pc.alpha = 0.1;
  pc.beta = 1.0;
  return core::PartitionerRegistry::instance().create(algo, pc);
}

/// Median over `reps` of seconds-per-op of `body(rep)`, which runs `ops`
/// operations.
template <typename Body>
double median_per_op(int reps, double ops, Body&& body) {
  std::vector<double> per_op;
  for (int rep = 0; rep < reps; ++rep) {
    const std::int64_t t0 = now_ns();
    body(rep);
    per_op.push_back(seconds_between(t0, now_ns()) / ops);
  }
  return median(per_op);
}

/// Bisections and seconds of `trials` scalar trials of `part` at n.
struct Cost {
  double seconds = 0.0;
  double bisections = 0.0;
};

Cost scalar_trials(const core::Partitioner& part, Workspace& ws,
                   std::uint64_t seed, std::int64_t trials, std::int32_t n) {
  Cost cost;
  const std::int64_t t0 = now_ns();
  for (std::int64_t t = 0; t < trials; ++t) {
    const std::uint64_t instance =
        stats::mix64(seed, static_cast<std::uint64_t>(t));
    core::RunContext ctx(instance);
    auto p = core::try_typed_partition(part, ctx, ws,
                                       SyntheticProblem(instance, fig5()), n);
    cost.bisections += static_cast<double>(p->bisections);
    ws.recycle(std::move(*p));
    ws.reset();
  }
  cost.seconds = seconds_between(t0, now_ns());
  return cost;
}

void probe_problems(std::uint64_t seed, Report& report) {
  // Breadth-first replay of the first 2^16 nodes of an instance's tree.
  constexpr std::size_t kNodes = std::size_t{1} << 16;
  std::vector<SyntheticProblem> queue;
  queue.reserve(2 * kNodes + 1);
  const double ns = 1e9 * median_per_op(21, kNodes, [&](int rep) {
    queue.clear();
    queue.emplace_back(stats::mix64(seed, static_cast<std::uint64_t>(rep)),
                       fig5());
    for (std::size_t head = 0; head < kNodes; ++head) {
      auto [heavy, light] = queue[head].bisect();
      queue.push_back(heavy);
      queue.push_back(light);
    }
    keep(queue.back().weight());
  });
  report.metric("problems.bisect_ns", ns, "ns", 21);
}

void probe_core(std::uint64_t seed, Report& report) {
  {
    // HF's selection heap in steady state at 2^20 live entries: pop the
    // heaviest, push a lighter child, as hf_run does.
    constexpr std::int64_t kLive = std::int64_t{1} << 20;
    core::detail::HfHeap heap;
    heap.reserve(static_cast<std::size_t>(kLive) + 1);
    stats::Xoshiro256 rng(seed);
    std::int64_t seq = 0;
    for (std::int64_t i = 0; i < kLive; ++i, ++seq) {
      heap.push({stats::hash_to_unit(rng()), seq, 0});
    }
    const double ns = 1e9 * median_per_op(5, kLive, [&](int) {
      for (std::int64_t i = 0; i < kLive; ++i) {
        core::detail::HfHeapEntry e = heap.pop();
        e.weight *= 0.5 + 0.4 * stats::hash_to_unit(rng());
        e.seq = seq++;
        heap.push(e);
      }
    });
    report.metric("core.heap_ns_per_op.n20", ns, "ns", 5);
  }
  Workspace ws;
  {
    Cost total;
    for (const std::string& algo : algos()) {
      const auto part = create(algo);
      (void)scalar_trials(*part, ws, seed, 4, 1 << 10);  // warm
      std::vector<double> ns;
      double bisections = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        const Cost c = scalar_trials(*part, ws, stats::mix64(seed, rep), 128,
                                     1 << 10);
        ns.push_back(c.seconds / c.bisections);
        bisections = c.bisections;
      }
      total.seconds += median(ns) * bisections;
      total.bisections += bisections;
    }
    report.metric("core.scalar_ns_per_bisection.n10",
                  1e9 * total.seconds / total.bisections, "ns", 3);
  }
  {
    // Registry dispatch: try_typed_partition minus the direct kernel call at
    // N = 64, as the median difference of adjacent blocks of calls.
    const auto part = create("hf");
    constexpr int kCalls = 5000;
    constexpr int kPairs = 40;
    const SyntheticProblem problem(seed, fig5());
    core::RunContext ctx(seed);
    std::vector<double> extra_ns;
    for (int pair = 0; pair < kPairs; ++pair) {
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kCalls; ++i) {
        auto p = core::try_typed_partition(*part, ctx, ws, problem, 64);
        keep(p->bisections);
        ws.recycle(std::move(*p));
      }
      const std::int64_t t1 = now_ns();
      for (int i = 0; i < kCalls; ++i) {
        auto p = core::hf_partition(ws, problem, 64);
        keep(p.bisections);
        ws.recycle(std::move(p));
      }
      extra_ns.push_back(static_cast<double>((t1 - t0) - (now_ns() - t1)) /
                         kCalls);
    }
    report.metric("core.dispatch_ns", median(extra_ns), "ns", kPairs);
  }
  {
    constexpr int kCreates = 2000;
    const double us = 1e6 * median_per_op(5, kCreates, [](int) {
      for (int i = 0; i < kCreates; ++i) keep(create("ba_hf").get());
    });
    report.metric("core.registry_create_us", us, "us", 5);
  }
}

void probe_batch(std::uint64_t seed, Report& report) {
  Workspace ws;
  double scalar_seconds = 0.0;
  double batch_seconds = 0.0;
  for (const std::int32_t k : {6, 10, 14}) {
    const std::int32_t n = std::int32_t{1} << k;
    const std::int64_t trials =
        std::max<std::int64_t>(32, (std::int64_t{1} << 19) / n);
    Cost batch;
    for (const std::string& algo : algos()) {
      const auto part = create(algo);
      const Cost scalar = scalar_trials(*part, ws, seed, trials, n);
      scalar_seconds += scalar.seconds;
      // The engine's unit of work: 32-trial ranges in lanes of 8.
      const core::BuiltinAlgo builtin = part->builtin();
      experiments::BatchTrialRunner runner;
      experiments::BatchTrialOutcome out[32];
      runner.run(builtin, fig5(), seed, 0, 8, n, 8, out);  // warm
      const std::int64_t t0 = now_ns();
      for (std::int64_t lo = 0; lo < trials; lo += 32) {
        const std::int64_t hi = std::min<std::int64_t>(lo + 32, trials);
        for (std::int64_t t = lo; t < hi; t += 8) {
          runner.run(builtin, fig5(), seed, t,
                     std::min<std::int64_t>(t + 8, hi), n, 8, out + (t - lo));
        }
        for (std::int64_t t = lo; t < hi; ++t) {
          batch.bisections += static_cast<double>(out[t - lo].bisections);
        }
      }
      batch.seconds += seconds_between(t0, now_ns());
    }
    batch_seconds += batch.seconds;
    report.metric("batch.ns_per_bisection.n" + std::to_string(k),
                  1e9 * batch.seconds / batch.bisections, "ns",
                  trials * static_cast<std::int64_t>(algos().size()));
  }
  report.metric("batch.speedup_vs_scalar", scalar_seconds / batch_seconds, "x",
                1);
}

void probe_stats(std::uint64_t seed, Report& report) {
  stats::Xoshiro256 rng(seed);
  constexpr std::size_t kValues = std::size_t{1} << 20;
  std::vector<double> values(kValues);
  for (double& v : values) v = 1.0 + 2.0 * stats::hash_to_unit(rng());
  {
    constexpr std::size_t kParts = 4096;
    std::vector<stats::RunningStats> parts(kParts);
    for (std::size_t i = 0; i < kParts * 32; ++i) {
      parts[i % kParts].add(values[i]);
    }
    const double ns = 1e9 * median_per_op(64, kParts, [&](int) {
      stats::RunningStats total;
      for (const stats::RunningStats& p : parts) total.merge(p);
      keep(total.mean());
    });
    report.metric("stats.running_merge_ns", ns, "ns", 64);
  }
  {
    stats::TailAccumulator tail(1.0, 8.0, 1024);
    const double ns = 1e9 * median_per_op(5, kValues, [&](int) {
      for (const double v : values) tail.add(v);
      keep(tail.count());
    });
    report.metric("stats.tail_add_ns", ns, "ns", 5);
  }
  {
    stats::PercentileReservoir reservoir(std::size_t{1} << 14);
    const double ns = 1e9 * median_per_op(5, kValues, [&](int) {
      for (const double v : values) reservoir.record(v);
      keep(reservoir.count());
    });
    report.metric("stats.reservoir_record_ns", ns, "ns", 5);
  }
}

void probe_runtime(Report& report) {
  runtime::ThreadPool pool(4);
  pool.submit_task([] { return 0; }).get();  // warm
  constexpr int kTasks = 400;
  const double task_us = 1e6 * median_per_op(7, kTasks, [&](int) {
    for (int i = 0; i < kTasks; ++i) keep(pool.submit_task([i] { return i; }).get());
  });
  report.metric("runtime.pool_task_us", task_us, "us", 7);
  constexpr std::int64_t kChunks = 256;
  const double chunk_us = 1e6 * median_per_op(7, kChunks, [&](int) {
    runtime::parallel_for_chunks(pool, 0, kChunks * 32, 32,
                                 [](std::int64_t, std::int64_t, std::int64_t) {});
  });
  report.metric("runtime.chunk_dispatch_us", chunk_us, "us", 7);
}

}  // namespace

void run_layer_probes(const Options& opt, Report& report) {
  const std::uint64_t seed = stats::mix64(opt.seed, 0x1a7e5u);
  probe_problems(seed, report);
  probe_core(seed, report);
  probe_batch(seed, report);
  probe_stats(seed, report);
  probe_runtime(report);
}

}  // namespace lbb::perf

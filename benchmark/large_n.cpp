// Workload large_n: one partition at a time at N = 2^20.
//
// Each round draws instance mix64(seed, round) and runs hf, ba, ba_hf, then
// the work-stealing par:ba and par:ba_hf at 4 and at 1 thread, each call on
// its own warm workspace and timed from outside.  HF's selection heap (about
// 100 MB of working set) misses cache here, so this is where cache-aware
// kernel and work-stealing changes show; the batch lanes and the
// experiments engine are bypassed entirely.
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "core/hf.hpp"
#include "core/partitioner.hpp"
#include "core/workspace.hpp"
#include "harness.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "runtime/par_partition.hpp"
#include "runtime/work_stealing.hpp"
#include "sim/cost_model.hpp"
#include "sim/par_ba.hpp"
#include "stats/rng.hpp"

namespace lbb::perf {
namespace {

using core::Partition;
using problems::AlphaDistribution;
using problems::SyntheticProblem;
using Workspace = core::TrialWorkspace<SyntheticProblem>;

constexpr std::int32_t kLog2N = 20;
constexpr std::int32_t kN = std::int32_t{1} << kLog2N;
// The Fig. 5 class: alpha-hat ~ U[0.1, 0.5], so alpha = 0.1; BA-HF beta = 1.
constexpr double kAlphaLo = 0.1;
constexpr double kAlphaHi = 0.5;
constexpr double kBeta = 1.0;

enum Call { kHf, kBa, kBaHf, kParBa4, kParBaHf4, kParBa1, kParBaHf1, kCalls };

struct CallInfo {
  const char* span;
  const char* algo;  ///< sequential registry key (for ratio_bound)
  std::int32_t threads;
};
constexpr CallInfo kCallInfo[kCalls] = {
    {"core.hf_partition", "hf", 0},
    {"core.ba_partition", "ba", 0},
    {"core.ba_hf_partition", "ba_hf", 0},
    {"runtime.par_ba_partition", "ba", 4},
    {"runtime.par_ba_hf_partition", "ba_hf", 4},
    {"runtime.par_ba_partition", "ba", 1},
    {"runtime.par_ba_hf_partition", "ba_hf", 1},
};

/// Pools and warm workspaces: everything a user builds once before
/// partitioning large instances.
struct State {
  runtime::WorkStealingPool pool4{4};
  runtime::WorkStealingPool pool1{1};
  Workspace ws[kCalls];
  double bound[kCalls] = {};
};

SyntheticProblem instance(std::uint64_t seed) {
  return SyntheticProblem(seed, AlphaDistribution::uniform(kAlphaLo, kAlphaHi));
}

Partition<SyntheticProblem> run_call(State& s, Call call, std::uint64_t seed,
                                     std::int32_t n,
                                     runtime::ParStats* stats) {
  const core::BaHfParams params{kAlphaLo, kBeta};
  Workspace& ws = s.ws[call];
  switch (call) {
    case kHf:
      return core::hf_partition(ws, instance(seed), n);
    case kBa:
      return core::ba_partition(ws, instance(seed), n);
    case kBaHf:
      return core::ba_hf_partition(ws, instance(seed), n, params);
    case kParBa4:
      return runtime::par_ba_partition(s.pool4, ws, instance(seed), n, {},
                                       stats);
    case kParBa1:
      return runtime::par_ba_partition(s.pool1, ws, instance(seed), n, {},
                                       stats);
    case kParBaHf4:
      return runtime::par_ba_hf_partition(s.pool4, instance(seed), n, params,
                                          {}, stats);
    case kParBaHf1:
      return runtime::par_ba_hf_partition(s.pool1, instance(seed), n, params,
                                          {}, stats);
    case kCalls:
      break;
  }
  throw std::logic_error("large_n: bad call");
}

bool same_pieces(const Partition<SyntheticProblem>& a,
                 const Partition<SyntheticProblem>& b) {
  if (a.pieces.size() != b.pieces.size() || a.bisections != b.bisections ||
      a.max_depth != b.max_depth ||
      std::bit_cast<std::uint64_t>(a.total_weight) !=
          std::bit_cast<std::uint64_t>(b.total_weight)) {
    return false;
  }
  for (std::size_t i = 0; i < a.pieces.size(); ++i) {
    const auto& pa = a.pieces[i];
    const auto& pb = b.pieces[i];
    if (std::bit_cast<std::uint64_t>(pa.weight) !=
            std::bit_cast<std::uint64_t>(pb.weight) ||
        pa.processor != pb.processor || pa.depth != pb.depth ||
        pa.node != pb.node ||
        pa.problem.node_hash() != pb.problem.node_hash()) {
      return false;
    }
  }
  return true;
}

}  // namespace

void run_large_n(const Options& opt, Report& report) {
  Span workload("benchmark.large_n");
  const int min_rounds = opt.smoke ? 1 : 3;
  core::PartitionerConfig pc;
  pc.alpha = kAlphaLo;
  pc.beta = kBeta;

  // Set-up: pools, partitioner bounds and one cold call per kernel so every
  // workspace holds its 2^20-sized buffers.
  std::unique_ptr<State> state;
  std::vector<double> setup;
  double cold_ms = 0.0;  // the process's first hf + ba + ba_hf calls
  for (int i = 0; i < 3; ++i) {
    state.reset();
    Span span("benchmark.setup");
    const std::int64_t t0 = now_ns();
    state = std::make_unique<State>();
    for (int c = 0; c < kCalls; ++c) {
      state->bound[c] = core::PartitionerRegistry::instance()
                            .create(kCallInfo[c].algo, pc)
                            ->ratio_bound(kN);
    }
    double cold = 0.0;
    for (int c = 0; c < kCalls; ++c) {
      const std::int64_t c0 = now_ns();
      auto part = run_call(*state, static_cast<Call>(c),
                           stats::mix64(opt.seed, ~std::uint64_t{0}), kN,
                           nullptr);
      if (c <= kBaHf) cold += seconds_between(c0, now_ns()) * 1e3;
      state->ws[c].recycle(std::move(part));
      state->ws[c].reset();
    }
    setup.push_back(seconds_between(t0, now_ns()));
    if (i == 0) cold_ms = cold;
  }
  State& s = *state;

  std::vector<double> ms[kCalls];
  std::vector<double> steals, spawns, idle_ms;
  double timed_seconds = 0.0;
  std::int64_t bisections = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  int rounds = 0;
  {
    Span measure("benchmark.measure");
    const std::int64_t start = now_ns();
    for (; rounds < min_rounds || seconds_between(start, now_ns()) < opt.seconds;
         ++rounds) {
      const std::uint64_t seed =
          stats::mix64(opt.seed, static_cast<std::uint64_t>(rounds));
      Partition<SyntheticProblem> seq[3];
      for (int c = 0; c < kCalls; ++c) {
        const auto call = static_cast<Call>(c);
        runtime::ParStats par;
        Partition<SyntheticProblem> part;
        {
          Span span(kCallInfo[c].span, kCallInfo[c].threads);
          const std::int64_t t0 = now_ns();
          part = run_call(s, call, seed, kN, &par);
          const double sec = seconds_between(t0, now_ns());
          ms[c].push_back(sec * 1e3);
          timed_seconds += sec;
        }
        Span check("benchmark.check");
        ++attempted;
        bisections += part.bisections;
        const double ratio = part.ratio();
        bool ok = part.validate() && ratio <= s.bound[c];
        if (c >= kParBa4) {
          ok = ok && same_pieces(part, seq[c == kParBa4 || c == kParBa1
                                               ? kBa
                                               : kBaHf]);
        }
        if (call == kParBa4) {
          steals.push_back(static_cast<double>(par.steals));
          spawns.push_back(static_cast<double>(par.spawns));
          idle_ms.push_back(static_cast<double>(par.idle_ns) * 1e-6);
        }
        if (!ok) {
          ++failed;
          report.check(std::string("large_n.") + kCallInfo[c].span + " t=" +
                           std::to_string(kCallInfo[c].threads) + " round " +
                           std::to_string(rounds),
                       false,
                       "invalid, above bound, or differs from sequential");
        }
        if (c <= kBaHf) {
          seq[c] = std::move(part);
        } else if (c != kParBaHf4 && c != kParBaHf1) {
          s.ws[c].recycle(std::move(part));
          s.ws[c].reset();
        }
      }
      for (int c = 0; c <= kBaHf; ++c) {
        s.ws[c].recycle(std::move(seq[c]));
        s.ws[c].reset();
      }
    }
  }
  report.count(attempted, failed);
  report.check("large_n.partitions", failed == 0);

  report.metric("setup_s", median(setup), "s",
                static_cast<std::int64_t>(setup.size()));
  report.metric("hf_ms_p50", median(ms[kHf]), "ms", rounds);
  report.metric("ba_ms_p50", median(ms[kBa]), "ms", rounds);
  report.metric("ba_hf_ms_p50", median(ms[kBaHf]), "ms", rounds);
  report.metric("throughput_per_s",
                static_cast<double>(bisections) / timed_seconds, "1/s",
                rounds);

  if (!opt.layers) return;
  const double per_bisection = 1e6 / static_cast<double>(kN - 1);
  report.metric("core.hf_ns_per_bisection.n20", median(ms[kHf]) * per_bisection,
                "ns", rounds);
  report.metric("core.ba_ns_per_bisection.n20", median(ms[kBa]) * per_bisection,
                "ns", rounds);
  report.metric("core.ba_hf_ns_per_bisection.n20",
                median(ms[kBaHf]) * per_bisection, "ns", rounds);
  const double warm =
      median(ms[kHf]) + median(ms[kBa]) + median(ms[kBaHf]);
  report.metric("core.cold_workspace_ms.n20", cold_ms - warm, "ms", 1);
  const double par_ba4 = median(ms[kParBa4]);
  const double par_ba1 = median(ms[kParBa1]);
  report.metric("runtime.par_ba_1t_over_seq", par_ba1 / median(ms[kBa]), "x",
                rounds);
  report.metric("runtime.par_ba_speedup_4t", par_ba1 / par_ba4, "x", rounds);
  report.metric("runtime.par_ba_hf_speedup_4t",
                median(ms[kParBaHf1]) / median(ms[kParBaHf4]), "x", rounds);
  report.metric("runtime.steals", median(steals), "count", rounds);
  report.metric("runtime.spawns", median(spawns), "count", rounds);
  report.metric("runtime.idle_ms", median(idle_ms), "ms", rounds);

  // Brent's bound on the round-0 instance's bisection DAG: with W total
  // bisections and critical path D under a pure-compute cost model, four
  // workers need at least W/4 + D steps.
  sim::CostModel cost;
  cost.t_bisect = 1.0;
  cost.t_send = 0.0;
  cost.collective_latency = 0.0;
  const auto sim = sim::ba_simulate(instance(stats::mix64(opt.seed, 0)), kN,
                                    cost);
  const double w = static_cast<double>(sim.partition.bisections);
  const double brent = w / (w / 4.0 + sim.metrics.makespan);
  report.metric("runtime.brent_ratio.par_ba", (par_ba1 / par_ba4) / brent,
                "frac", rounds);
}

}  // namespace lbb::perf

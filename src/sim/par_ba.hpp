// Algorithms BA and BA-HF on the simulated parallel machine.
//
// BA's parallel execution needs no global communication at all: each
// subproblem carries its range [i, j] of processors, is bisected on P_i,
// and ships the lighter child to P_{i+n1} -- every processor determines its
// communication partner locally (Section 3.4 of the paper).  The simulated
// makespan is therefore the critical path through the bisection tree with
// unit bisection/transfer costs, and the collective-operation count is
// exactly zero (asserted by tests).
//
// BA-HF behaves like BA while a subproblem owns >= beta/alpha + 1
// processors and then partitions the remainder with sequential HF on the
// owning processor, shipping the resulting pieces to the processors of its
// range (constant extra time per processor for fixed beta/alpha).
//
// The simulators run core's BA descent (core::detail::ba_descend, ba_run)
// through SimSink, which keeps each frame's clock next to its place in the
// partition, so every piece, tree node and bisection is core's own.
//
// All simulators accept a FaultConfig (sim/fault_model.hpp).  BA's
// recursion order is structural, so injected slowdowns, message loss and
// delays stretch the critical path and the fault metrics but leave the
// partition -- and where each piece lands -- untouched.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/ba.hpp"
#include "core/bounds.hpp"
#include "core/detail/build_context.hpp"
#include "core/hf.hpp"
#include "core/partition.hpp"
#include "core/problem.hpp"
#include "core/workspace.hpp"
#include "sim/cost_model.hpp"
#include "sim/fault_model.hpp"
#include "sim/metrics.hpp"
#include "sim/phf.hpp"
#include "sim/trace.hpp"
#include "stats/rng.hpp"

namespace lbb::sim {

/// Which algorithm BA-HF uses below the beta/alpha + 1 switch threshold
/// (Section 3.3: "it may be advantageous to choose either the sequential
/// Algorithm HF or Algorithm PHF for the implementation of the second
/// phase of Algorithm BA-HF").
enum class BaHfSecondPhase {
  kSequentialHf,  ///< HF on the owning processor, then ship the pieces
  kPhf,           ///< PHF within the subproblem's processor range
};

namespace detail {

/// The BA-family kernels' output sink on the simulated machine: the
/// BuildContext that builds the partition, plus the time at which each
/// frame's subproblem is on its first processor.
template <lbb::core::Bisectable P>
struct SimSink {
  struct FrameTag {
    typename lbb::core::detail::BuildContext<P>::FrameTag at;
    double time;
  };

  lbb::core::Partition<P>& out;
  lbb::core::detail::BuildContext<P>& ctx;
  const CostModel& cost;
  const FaultConfig& faults;
  FaultModel fault;
  SimMetrics& m;
  Trace* trace;

  /// One bisection on the frame's first processor; the lighter child
  /// travels to proc_lo + n1.
  std::pair<FrameTag, FrameTag> split(const FrameTag& f, double wl,
                                      double wr, std::int32_t n1) {
    const lbb::core::ProcessorId proc = f.at.proc_lo;
    const double done = f.time + fault.bisect_cost(proc, cost.t_bisect);
    if (trace) trace->record(done, proc, TraceEvent::kBisect, wl);
    const double arrival = faulted_transfer(fault, cost, out.processors, m,
                                            trace, proc, proc + n1, done, wr);
    const auto [left, right] = ctx.split(f.at, wl, wr, n1);
    return {FrameTag{left, done}, FrameTag{right, arrival}};
  }

  void piece(P problem, double weight, const FrameTag& f) {
    m.makespan = std::max(m.makespan, f.time);
    ctx.piece(std::move(problem), weight, f.at);
  }

  /// BA-HF's sequential second phase on a frame of k >= 2 processors: HF
  /// on its first processor, then pipelined sends of the other k - 1
  /// pieces, each departing when the previous one is done.
  void hf_phase(lbb::core::TrialWorkspace<P>& ws, P problem, std::int32_t k,
                const FrameTag& f) {
    const lbb::core::ProcessorId proc = f.at.proc_lo;
    lbb::core::detail::hf_run(ctx, ws, std::move(problem), k, f.at);
    const double step = fault.bisect_cost(proc, cost.t_bisect);
    const double bisect_done = f.time + step * (k - 1);
    double send_clock = bisect_done;
    for (std::int32_t j = 1; j < k; ++j) {
      if (trace) trace->record(f.time + step * j, proc, TraceEvent::kBisect);
      send_clock = faulted_transfer(fault, cost, out.processors, m, trace,
                                    proc, proc + j, send_clock, 0.0);
      m.makespan = std::max(m.makespan, send_clock);
    }
    m.makespan = std::max(m.makespan, bisect_done);
  }

  /// BA-HF's PHF second phase on a frame of k >= 2 processors: PHF within
  /// the range [proc_lo, proc_lo + k), on a fault stream derived from
  /// (seed, proc_lo) so the pattern differs per range but stays
  /// deterministic.  The tree covers the BA phase only; the sub-run adds
  /// its pieces and metrics.
  void phf_phase(P problem, std::int32_t k, const FrameTag& f, double alpha) {
    const lbb::core::ProcessorId proc = f.at.proc_lo;
    PhfSimOptions opt;
    opt.faults = faults;
    opt.faults.seed =
        lbb::stats::mix64(faults.seed, static_cast<std::uint64_t>(proc));
    auto sub = phf_simulate(std::move(problem), k, alpha, cost, opt);
    m.makespan = std::max(m.makespan, f.time + sub.metrics.makespan);
    m.messages += sub.metrics.messages;
    m.collective_ops += sub.metrics.collective_ops;
    m.retries += sub.metrics.retries;
    m.lost_messages += sub.metrics.lost_messages;
    m.delayed_messages += sub.metrics.delayed_messages;
    m.backoff_time += sub.metrics.backoff_time;
    out.bisections += sub.partition.bisections;
    for (auto& piece : sub.partition.pieces) {
      ctx.piece(std::move(piece.problem), piece.weight,
                proc + piece.processor, f.at.depth + piece.depth,
                lbb::core::kNoNode);
    }
  }
};

/// Runs `descend(sink, ws, problem, root)` with a SimSink over a fresh
/// partition of `n` processors; returns the partition and its metrics.
template <lbb::core::Bisectable P, typename Descend>
SimResult<P> simulate_ba_family(P problem, std::int32_t n,
                                const CostModel& cost,
                                const lbb::core::PartitionOptions& popt,
                                Trace* trace, const FaultConfig& faults,
                                const Descend& descend) {
  if (n < 1) throw std::invalid_argument("ba_simulate: n must be >= 1");
  SimResult<P> result;
  lbb::core::Partition<P>& out = result.partition;
  out.processors = n;
  out.total_weight = problem.weight();
  out.pieces.reserve(static_cast<std::size_t>(n));
  lbb::core::detail::BuildContext<P> ctx(out, popt.record_tree);
  const lbb::core::NodeId root = ctx.root(out.total_weight);
  SimSink<P> sink{out, ctx, cost, faults, FaultModel(faults), result.metrics,
                  trace};
  lbb::core::TrialWorkspace<P> ws;
  descend(sink, ws, std::move(problem),
          typename SimSink<P>::FrameTag{{0, 0, root}, 0.0});
  result.metrics.bisections = out.bisections;
  return result;
}

}  // namespace detail

/// Simulates Algorithm BA.  Produces the same partition as
/// lbb::core::ba_partition plus time/communication metrics.
template <lbb::core::Bisectable P>
[[nodiscard]] SimResult<P> ba_simulate(
    P problem, std::int32_t n, const CostModel& cost = {},
    const lbb::core::PartitionOptions& popt = {}, Trace* trace = nullptr,
    const FaultConfig& faults = {}) {
  return detail::simulate_ba_family(
      std::move(problem), n, cost, popt, trace, faults,
      [n](auto& sink, auto& ws, P p, const auto& root) {
        lbb::core::detail::ba_run(sink, ws, std::move(p), n, root,
                                  /*prune_below=*/-1.0);
      });
}

/// Simulates Algorithm BA' (threshold-pruned BA, Section 3.4).
template <lbb::core::Bisectable P>
[[nodiscard]] SimResult<P> ba_star_simulate(
    P problem, std::int32_t n, double alpha, const CostModel& cost = {},
    const lbb::core::PartitionOptions& popt = {}, Trace* trace = nullptr,
    const FaultConfig& faults = {}) {
  lbb::core::require_valid_alpha(alpha);
  const double threshold =
      lbb::core::phf_phase1_threshold(alpha, problem.weight(), n);
  return detail::simulate_ba_family(
      std::move(problem), n, cost, popt, trace, faults,
      [n, threshold](auto& sink, auto& ws, P p, const auto& root) {
        lbb::core::detail::ba_run(sink, ws, std::move(p), n, root, threshold);
      });
}

/// Simulates Algorithm BA-HF.  The second (below-threshold) phase runs
/// either sequential HF on the owning processor (default) or PHF within
/// the subproblem's processor range; both produce the same partition, the
/// PHF variant trades collectives within small ranges for shorter
/// sequential chains when beta/alpha is large.
template <lbb::core::Bisectable P>
[[nodiscard]] SimResult<P> ba_hf_simulate(
    P problem, std::int32_t n, double alpha, double beta,
    const CostModel& cost = {},
    const lbb::core::PartitionOptions& popt = {}, Trace* trace = nullptr,
    BaHfSecondPhase second_phase = BaHfSecondPhase::kSequentialHf,
    const FaultConfig& faults = {}) {
  lbb::core::require_valid_alpha(alpha);
  if (!(beta > 0.0)) throw std::invalid_argument("ba_hf_simulate: beta <= 0");
  const std::int32_t threshold =
      lbb::core::ba_hf_switch_threshold(alpha, beta);
  using Frame = lbb::core::detail::BaFrame<P, detail::SimSink<P>>;
  return detail::simulate_ba_family(
      std::move(problem), n, cost, popt, trace, faults,
      [&](auto& sink, auto& ws, P p, const auto& root) {
        const double w = p.weight();
        lbb::core::detail::ba_descend(
            sink, ws, Frame(std::move(p), w, n, root),
            [threshold](const Frame& f) { return f.n < threshold; },
            [&](Frame& f) {
              if (f.n == 1) {
                sink.piece(std::move(f.problem), f.weight, f.tag);
              } else if (second_phase == BaHfSecondPhase::kSequentialHf) {
                sink.hf_phase(ws, std::move(f.problem), f.n, f.tag);
              } else {
                sink.phf_phase(std::move(f.problem), f.n, f.tag, alpha);
              }
            });
      });
}

}  // namespace lbb::sim

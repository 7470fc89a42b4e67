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
// All simulators accept a FaultConfig (sim/fault_model.hpp).  BA's
// recursion order is structural, so injected slowdowns, message loss and
// delays stretch the critical path and the fault metrics but leave the
// partition -- and where each piece lands -- untouched.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/bounds.hpp"
#include "core/detail/build_context.hpp"
#include "core/hf.hpp"
#include "core/partition.hpp"
#include "core/problem.hpp"
#include "core/split.hpp"
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

/// Shared BA-style simulated recursion.  If `switch_threshold` > 0, frames
/// whose range drops below it run sequential HF locally (BA-HF); if
/// `prune_below` >= 0, subproblems at or below that weight become leaves
/// regardless of range (BA').
template <lbb::core::Bisectable P>
SimResult<P> ba_like_simulate(P problem, std::int32_t n,
                              const CostModel& cost,
                              const lbb::core::PartitionOptions& popt,
                              std::int32_t switch_threshold,
                              double prune_below, Trace* trace,
                              const FaultConfig& faults) {
  if (n < 1) throw std::invalid_argument("ba_simulate: n must be >= 1");
  FaultModel fault(faults);
  SimResult<P> result;
  lbb::core::Partition<P>& out = result.partition;
  SimMetrics& m = result.metrics;
  out.processors = n;
  out.total_weight = problem.weight();
  out.pieces.reserve(static_cast<std::size_t>(n));
  lbb::core::detail::BuildContext<P> ctx(out, popt.record_tree);
  const lbb::core::NodeId root_node = ctx.root(out.total_weight);

  struct Frame {
    P problem;
    double weight;
    std::int32_t n;
    lbb::core::ProcessorId proc_lo;
    double time;
    std::int32_t depth;
    lbb::core::NodeId node;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{std::move(problem), out.total_weight, n, 0, 0.0, 0,
                        root_node});
  // One workspace for every below-threshold HF leaf of this simulate call
  // (BA-HF runs many); warm after the first leaf.
  lbb::core::TrialWorkspace<P> hf_ws;

  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();

    if (f.n == 1 || (prune_below >= 0.0 && f.weight <= prune_below)) {
      m.makespan = std::max(m.makespan, f.time);
      ctx.piece(std::move(f.problem), f.weight, f.proc_lo, f.depth, f.node);
      continue;
    }
    if (switch_threshold > 0 && f.n < switch_threshold) {
      // BA-HF leaf phase: sequential HF on the owning processor, then ship
      // the pieces (pipelined sends, one per unit of t_send).
      const auto pieces_before = out.pieces.size();
      lbb::core::detail::hf_run(ctx, hf_ws, std::move(f.problem), f.n,
                                {f.proc_lo, f.depth, f.node});
      const auto produced =
          static_cast<std::int32_t>(out.pieces.size() - pieces_before);
      const double step = fault.bisect_cost(f.proc_lo, cost.t_bisect);
      const double bisect_done =
          f.time + step * static_cast<double>(produced - 1);
      double send_clock = bisect_done;
      for (std::int32_t j = 1; j < produced; ++j) {
        if (trace) {
          trace->record(f.time + step * j, f.proc_lo, TraceEvent::kBisect);
        }
        // Pipelined sends: each departs when the previous one is done.
        send_clock = faulted_transfer(fault, cost, n, m, trace, f.proc_lo,
                                      f.proc_lo + j, send_clock, 0.0);
        m.makespan = std::max(m.makespan, send_clock);
      }
      m.makespan = std::max(m.makespan, bisect_done);
      continue;
    }

    auto [a, b] = f.problem.bisect();
    double wa = a.weight();
    double wb = b.weight();
    if (wa < wb) {
      std::swap(a, b);
      std::swap(wa, wb);
    }
    const auto [node_a, node_b] = ctx.bisected(f.node, wa, wb);
    const std::int32_t n1 = lbb::core::ba_split_processors(wa, wb, f.n);
    const double done = f.time + fault.bisect_cost(f.proc_lo, cost.t_bisect);
    const std::int32_t depth = f.depth + 1;
    if (trace) trace->record(done, f.proc_lo, TraceEvent::kBisect, wa);
    const double arrival = faulted_transfer(fault, cost, n, m, trace,
                                            f.proc_lo, f.proc_lo + n1, done,
                                            wb);
    stack.push_back(Frame{std::move(b), wb, f.n - n1,
                          f.proc_lo + static_cast<lbb::core::ProcessorId>(n1),
                          arrival, depth, node_b});
    stack.push_back(
        Frame{std::move(a), wa, n1, f.proc_lo, done, depth, node_a});
  }

  m.bisections = out.bisections;
  m.collective_ops = 0;  // BA-family: no global communication, by design
  return result;
}

/// BA-HF with PHF as the second phase: BA-style recursion down to the
/// switch threshold, then each below-threshold subproblem runs PHF inside
/// its own processor range (collectives scoped to that range).  Tree
/// recording covers the BA phase only; the PHF sub-runs contribute their
/// pieces and metrics.
template <lbb::core::Bisectable P>
SimResult<P> ba_hf_phf_simulate(P problem, std::int32_t n, double alpha,
                                const CostModel& cost,
                                const lbb::core::PartitionOptions& popt,
                                std::int32_t switch_threshold, Trace* trace,
                                const FaultConfig& faults) {
  FaultModel fault(faults);
  SimResult<P> result;
  lbb::core::Partition<P>& out = result.partition;
  SimMetrics& m = result.metrics;
  out.processors = n;
  out.total_weight = problem.weight();
  out.pieces.reserve(static_cast<std::size_t>(n));
  lbb::core::detail::BuildContext<P> ctx(out, popt.record_tree);
  const lbb::core::NodeId root_node = ctx.root(out.total_weight);

  struct Frame {
    P problem;
    double weight;
    std::int32_t n;
    lbb::core::ProcessorId proc_lo;
    double time;
    std::int32_t depth;
    lbb::core::NodeId node;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{std::move(problem), out.total_weight, n, 0, 0.0, 0,
                        root_node});

  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();

    if (f.n == 1) {
      m.makespan = std::max(m.makespan, f.time);
      ctx.piece(std::move(f.problem), f.weight, f.proc_lo, f.depth, f.node);
      continue;
    }
    if (f.n < switch_threshold) {
      // PHF within the range [proc_lo, proc_lo + f.n).  Each sub-run gets
      // its own fault stream derived from (seed, range start) so the fault
      // pattern differs per range but stays deterministic.
      PhfSimOptions sub_opt;
      sub_opt.faults = faults;
      sub_opt.faults.seed = lbb::stats::mix64(
          faults.seed, static_cast<std::uint64_t>(f.proc_lo));
      auto sub =
          phf_simulate(std::move(f.problem), f.n, alpha, cost, sub_opt);
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
                  f.proc_lo + piece.processor, f.depth + piece.depth,
                  lbb::core::kNoNode);
      }
      continue;
    }

    auto [a, b] = f.problem.bisect();
    double wa = a.weight();
    double wb = b.weight();
    if (wa < wb) {
      std::swap(a, b);
      std::swap(wa, wb);
    }
    const auto [node_a, node_b] = ctx.bisected(f.node, wa, wb);
    const std::int32_t n1 = lbb::core::ba_split_processors(wa, wb, f.n);
    const double done = f.time + fault.bisect_cost(f.proc_lo, cost.t_bisect);
    const std::int32_t depth = f.depth + 1;
    if (trace) trace->record(done, f.proc_lo, TraceEvent::kBisect, wa);
    const double arrival = faulted_transfer(fault, cost, n, m, trace,
                                            f.proc_lo, f.proc_lo + n1, done,
                                            wb);
    stack.push_back(Frame{std::move(b), wb, f.n - n1,
                          f.proc_lo + static_cast<lbb::core::ProcessorId>(n1),
                          arrival, depth, node_b});
    stack.push_back(
        Frame{std::move(a), wa, n1, f.proc_lo, done, depth, node_a});
  }

  m.bisections = out.bisections;
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
  return detail::ba_like_simulate(std::move(problem), n, cost, popt,
                                  /*switch_threshold=*/0,
                                  /*prune_below=*/-1.0, trace, faults);
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
  return detail::ba_like_simulate(std::move(problem), n, cost, popt,
                                  /*switch_threshold=*/0, threshold, trace,
                                  faults);
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
  if (second_phase == BaHfSecondPhase::kSequentialHf) {
    return detail::ba_like_simulate(std::move(problem), n, cost, popt,
                                    std::max<std::int32_t>(threshold, 2),
                                    /*prune_below=*/-1.0, trace, faults);
  }
  return detail::ba_hf_phf_simulate(std::move(problem), n, alpha, cost, popt,
                                    std::max<std::int32_t>(threshold, 2),
                                    trace, faults);
}

}  // namespace lbb::sim

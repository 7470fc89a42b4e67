// Parallel BA / BA' / BA-HF on ThreadPool, byte-identical to the sequential
// partitioners.
//
// BA needs no global coordination: every subproblem carries its processor
// range and is split locally (the paper's Section 3.4; sim/par_ba.hpp
// models it), so a call's whole decomposition is fixed by its first few
// hundred bisections.  A call therefore runs in three phases:
//
//   1. Frontier descent, on the caller: the sequential kernels' own
//      descent (core::detail::ba_descend) from the root, stopping at every
//      frame that holds at most `grain` processors or meets its family's
//      leaf/switch condition.  Those frames are the *frontier*; a
//      BuildContext on a scratch Partition counts the prefix bisections.
//   2. Frames, on the pool: parallel_for_chunks deals the frontier frames
//      to the workers, and each worker finishes its frame with the
//      unmodified sequential kernel (detail::ba_run / ba_hf_run), drawing
//      scratch from a worker-thread-local TrialWorkspace and building the
//      frame's pieces in the frame's own result slot.
//   3. Join, on the caller: the slots' pieces move to the output in
//      frontier order.
//
// A recorded tree comes from one frame: record_tree sets the grain to n,
// so the root is the only frontier frame, its BuildContext numbers the
// tree exactly as the sequential call does, and the join moves that tree
// into the output.  Only tests record a tree through par:*; every timed
// caller runs without one.
//
// Determinism argument (why the output is byte-identical to sequential
// ba/ba_star/ba_hf for every thread count and grain):
//   1. The frontier is a pure function of (problem, weights, n, grain,
//      family thresholds) -- never of scheduling -- and every frontier
//      frame is a frame the sequential descent visits, with the same
//      problem, processor range and depth.  The sequential kernel run from
//      that frame makes the same decisions the sequential run makes below
//      it.  The pool only changes WHEN/WHERE a frame runs.
//   2. The descent keeps the heavier child in hand, and that child owns
//      the lower processors, so frontier frames come out in ascending
//      proc_lo; each frame's kernel emits its pieces in ascending
//      processor order.  So the frames' runs, joined in frontier order,
//      are the sequential output.
//
// Allocation: once warm, the non-recording path performs ZERO heap
// allocations -- the frontier and the result slots live in caller-thread
// scratch (the slots only grow, so each keeps its capacity from call to
// call), frame scratch in worker-thread-local workspaces, the dispatch is
// parallel_for_chunks' allocation-free fork-join, and the pieces vector
// can be recycled through a caller TrialWorkspace
// (tests/perf/alloc_gate_test.cpp pins this on the caller and on every
// worker).  Tree recording allocates (the tree itself does), exactly like
// sequential.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "core/bisection_tree.hpp"
#include "core/bounds.hpp"
#include "core/detail/build_context.hpp"
#include "core/partition.hpp"
#include "core/problem.hpp"
#include "core/workspace.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"

namespace lbb::runtime {

/// Knobs of a parallel partition call.
struct ParOptions {
  core::PartitionOptions partition;  ///< record_tree, as sequential
  /// The most processors a frontier frame holds.  0 = auto:
  /// n / (8 * workers), clamped to [1, 8192].  Ignored under record_tree,
  /// which runs the call as one frame (grain n).  Affects decomposition
  /// granularity only, never the output.
  std::int32_t grain = 0;
};

/// Per-call runtime counters of a direct par_*_partition call.
struct ParStats {
  /// Frontier frames dealt to the pool; 1 under record_tree.
  std::int64_t spawns = 0;
  /// Always 0; kept only for benchmark/large_n.cpp, which reports it.
  std::int64_t steals = 0;
  std::int64_t idle_ns = 0;  ///< workers x join wall time - frame time
  std::int32_t grain = 0;    ///< effective grain used; n under record_tree
};

namespace detail {

template <core::Bisectable P>
using ParFrame = core::detail::BaFrame<P, core::detail::BuildContext<P>>;

/// One frontier frame's result slot: the frame's run (its pieces,
/// bisections, max depth and, when recording, the call's tree) and the
/// worker's busy time on it.
template <core::Bisectable P>
struct FrameResult {
  core::Partition<P> run;
  std::int64_t busy_ns = 0;
};

/// Caller-thread scratch reused across calls.
template <core::Bisectable P>
struct ParScratch {
  core::TrialWorkspace<P> ws;  ///< the frontier descent's stack
  std::vector<ParFrame<P>> frontier;
  /// One slot per frontier frame.  Only grows, so every slot keeps its
  /// capacity from call to call.
  std::vector<FrameResult<P>> results;
};

/// The frames phase's view of one call: references into the caller's
/// scratch, taken before the fork (on a worker, the name of a caller
/// thread_local would denote the worker's own instance).
template <core::Bisectable P>
struct FrameJob {
  ParFrame<P>* frames;
  FrameResult<P>* results;
  double prune_below;             ///< BA' iff >= 0
  std::int32_t switch_threshold;  ///< BA-HF iff > 0
  bool record;
};

/// Finishes frontier frame `i` with the sequential kernel on this worker,
/// building its run in the frame's result slot.  Absolute proc_lo/depth go
/// straight through; node ids count from the frame's own root, which is
/// the call's root when a tree is recorded (the only frame).
template <core::Bisectable P>
void run_frame(const FrameJob<P>& job, std::size_t i) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  // One workspace per (worker thread, problem type); warm after the first
  // few frames, then allocation-free like any sequential trial loop.
  static thread_local core::TrialWorkspace<P> ws;
  ParFrame<P>& f = job.frames[i];
  FrameResult<P>& result = job.results[i];
  // The slot may hold an earlier call's run, or part of one that threw.
  core::Partition<P>& run = result.run;
  run.pieces.clear();
  run.pieces.reserve(static_cast<std::size_t>(f.n));
  run.bisections = 0;
  run.max_depth = 0;
  run.tree = core::BisectionTree();
  core::detail::BuildContext<P> bctx(run, job.record);
  bctx.reserve(f.n);
  const typename core::detail::BuildContext<P>::FrameTag at{
      f.tag.proc_lo, f.tag.depth, bctx.root(f.weight)};
  if (job.switch_threshold > 0) {
    core::detail::ba_hf_run(bctx, ws, std::move(f.problem), f.n, at,
                            job.switch_threshold);
  } else {
    core::detail::ba_run(bctx, ws, std::move(f.problem), f.n, at,
                         job.prune_below);
  }
  result.busy_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - start)
                       .count();
}

[[nodiscard]] inline std::int32_t effective_grain(std::int32_t requested,
                                                  std::int32_t n,
                                                  unsigned workers) {
  if (requested > 0) return requested;
  const std::int32_t auto_grain =
      n / (8 * static_cast<std::int32_t>(workers));
  return std::clamp(auto_grain, 1, 8192);
}

/// Shared driver of the public entry points: BA' when prune_below >= 0,
/// BA-HF when switch_threshold > 0, BA otherwise.
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_run(ThreadPool& pool,
                                         core::TrialWorkspace<P>* caller_ws,
                                         P problem, std::int32_t n,
                                         double prune_below,
                                         std::int32_t switch_threshold,
                                         const ParOptions& opt,
                                         ParStats* stats) {
  using Clock = std::chrono::steady_clock;
  const bool record = opt.partition.record_tree;
  const std::int32_t grain =
      record ? n : effective_grain(opt.grain, n, pool.size());

  core::Partition<P> out;
  out.processors = n;
  out.total_weight = problem.weight();
  out.pieces = caller_ws != nullptr
                   ? caller_ws->take_pieces(static_cast<std::size_t>(n))
                   : [&] {
                       std::vector<core::Piece<P>> pieces;
                       pieces.reserve(static_cast<std::size_t>(n));
                       return pieces;
                     }();

  static thread_local ParScratch<P> scratch;

  // Phase 1: the frontier descent.
  scratch.frontier.clear();
  core::Partition<P> prefix;
  core::detail::BuildContext<P> pctx(prefix, /*record_tree=*/false);
  core::detail::ba_descend(
      pctx, scratch.ws,
      ParFrame<P>(std::move(problem), out.total_weight, n,
                  {0, 0, core::kNoNode}),
      [&](const ParFrame<P>& f) {
        return f.n <= grain || f.weight <= prune_below ||
               f.n < switch_threshold;
      },
      [&](ParFrame<P>& f) { scratch.frontier.push_back(std::move(f)); });

  // Phase 2: the frames, on the pool.
  const std::size_t frames = scratch.frontier.size();
  if (scratch.results.size() < frames) scratch.results.resize(frames);
  const FrameJob<P> job{scratch.frontier.data(), scratch.results.data(),
                        prune_below, switch_threshold, record};
  const auto fork = Clock::now();
  parallel_for_chunks(pool, 0, static_cast<std::int64_t>(frames), 1,
                      [&job](std::int64_t i, std::int64_t, std::int64_t) {
                        run_frame(job, static_cast<std::size_t>(i));
                      });
  const auto join_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - fork)
                           .count();

  // Phase 3: the frames' runs, joined in frontier order.
  out.bisections = prefix.bisections;
  if (record) out.tree = std::move(scratch.results[0].run.tree);
  std::int64_t busy_ns = 0;
  for (std::size_t i = 0; i < frames; ++i) {
    core::Partition<P>& run = scratch.results[i].run;
    out.bisections += run.bisections;
    out.max_depth = std::max(out.max_depth, run.max_depth);
    out.pieces.insert(out.pieces.end(),
                      std::make_move_iterator(run.pieces.begin()),
                      std::make_move_iterator(run.pieces.end()));
    busy_ns += scratch.results[i].busy_ns;
  }
  scratch.frontier.clear();

  if (stats != nullptr) {
    stats->spawns = static_cast<std::int64_t>(frames);
    stats->steals = 0;
    stats->idle_ns = std::max<std::int64_t>(
        0, static_cast<std::int64_t>(pool.size()) * join_ns - busy_ns);
    stats->grain = grain;
  }
  return out;
}

}  // namespace detail

/// Partitions `problem` into exactly `n` subproblems with Algorithm BA on
/// `pool`'s worker threads.  Output (pieces, order, counters, recorded
/// tree) is byte-identical to core::ba_partition for every thread count.
/// Throws std::logic_error when called from a task running on `pool` (the
/// join would deadlock); concurrent calls from distinct caller threads are
/// fully supported.
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_ba_partition(
    ThreadPool& pool, core::TrialWorkspace<P>& ws, P problem, std::int32_t n,
    const ParOptions& opt = {}, ParStats* stats = nullptr) {
  if (n < 1) throw std::invalid_argument("par_ba_partition: n must be >= 1");
  return detail::par_run(pool, &ws, std::move(problem), n,
                         /*prune_below=*/-1.0, /*switch_threshold=*/0, opt,
                         stats);
}

/// Workspace-free form (fresh pieces storage per call; identical output).
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_ba_partition(
    ThreadPool& pool, P problem, std::int32_t n, const ParOptions& opt = {},
    ParStats* stats = nullptr) {
  if (n < 1) throw std::invalid_argument("par_ba_partition: n must be >= 1");
  return detail::par_run<P>(pool, nullptr, std::move(problem), n,
                            /*prune_below=*/-1.0, /*switch_threshold=*/0, opt,
                            stats);
}

/// Algorithm BA' (BA pruned at the PHF phase-1 weight threshold) on the
/// pool; byte-identical to core::ba_star_partition.
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_ba_star_partition(
    ThreadPool& pool, P problem, std::int32_t n, double alpha,
    const ParOptions& opt = {}, ParStats* stats = nullptr) {
  if (n < 1) {
    throw std::invalid_argument("par_ba_star_partition: n must be >= 1");
  }
  core::require_valid_alpha(alpha);
  const double threshold =
      core::phf_phase1_threshold(alpha, problem.weight(), n);
  return detail::par_run<P>(pool, nullptr, std::move(problem), n, threshold,
                            /*switch_threshold=*/0, opt, stats);
}

/// Algorithm BA-HF on the pool; byte-identical to core::ba_hf_partition.
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_ba_hf_partition(
    ThreadPool& pool, P problem, std::int32_t n,
    const core::BaHfParams& params = {}, const ParOptions& opt = {},
    ParStats* stats = nullptr) {
  if (n < 1) {
    throw std::invalid_argument("par_ba_hf_partition: n must be >= 1");
  }
  core::require_valid_alpha(params.alpha);
  if (!(params.beta > 0.0)) {
    throw std::invalid_argument("par_ba_hf_partition: beta must be > 0");
  }
  const std::int32_t threshold =
      core::ba_hf_switch_threshold(params.alpha, params.beta);
  return detail::par_run<P>(pool, nullptr, std::move(problem), n,
                            /*prune_below=*/-1.0, threshold, opt, stats);
}

}  // namespace lbb::runtime

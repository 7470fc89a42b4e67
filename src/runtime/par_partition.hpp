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
//      BuildContext on a scratch Partition counts the prefix bisections
//      and, when recording, records the prefix tree.
//   2. Frames, on the pool: parallel_for_chunks deals the frontier frames
//      to the workers, and each worker finishes its frame with the
//      unmodified sequential kernel (detail::ba_run / ba_hf_run), drawing
//      scratch from a worker-thread-local TrialWorkspace and writing its
//      pieces into staging slots indexed by absolute processor id.
//   3. Compaction, on the caller: the staged pieces in ascending processor
//      order, and under record_tree the stitched tree (stitch_tree).
//
// Determinism argument (why the output is byte-identical to sequential
// ba/ba_star/ba_hf for every thread count and grain):
//   1. The frontier is a pure function of (problem, weights, n, grain,
//      family thresholds) -- never of scheduling -- and every frontier
//      frame is a frame the sequential descent visits, with the same
//      problem, processor range and depth.  The sequential kernel run from
//      that frame makes the same decisions the sequential run makes below
//      it.  The pool only changes WHEN/WHERE a frame runs.
//   2. Every piece lands in a staging slot indexed by its absolute
//      processor id; frames own disjoint ranges, so there are no write
//      conflicts.  The sequential kernels emit pieces in strictly
//      increasing processor order, so compacting the staging array in
//      ascending processor order reproduces the sequential piece order.
//   3. The sequential kernels bisect a subtree's nodes contiguously,
//      heavier subtree first, so walking the prefix tree heavier child
//      first and splicing in each frame's local subtree at its leaf replays
//      the sequential creation order: ids, parents, child links and depths
//      all come out identical (stitch_tree).
//
// Allocation: once warm, the non-recording path performs ZERO heap
// allocations -- the frontier, the per-frame results and the staging live
// in caller-thread scratch, frame scratch in worker-thread-local
// workspaces, the dispatch is parallel_for_chunks' allocation-free
// fork-join, and the pieces vector can be recycled through a caller
// TrialWorkspace (tests/perf/alloc_gate_test.cpp pins this).  Tree
// recording allocates (the tree itself does), exactly like sequential.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
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
#include "stats/alloc_stats.hpp"

namespace lbb::runtime {

/// Knobs of a parallel partition call.
struct ParOptions {
  core::PartitionOptions partition;  ///< record_tree, as sequential
  /// The most processors a frontier frame holds.  0 = auto:
  /// n / (8 * workers), clamped to [1, 8192].  Affects decomposition
  /// granularity only, never the output.
  std::int32_t grain = 0;
};

/// Per-call runtime counters (reported as par.* through RunContext by the
/// registered partitioners; also available directly).
struct ParStats {
  std::int64_t spawns = 0;       ///< frontier frames dealt to the pool
  /// Always 0; kept only for benchmark/large_n.cpp, which reports it.
  std::int64_t steals = 0;
  std::int64_t idle_ns = 0;      ///< workers x join wall time - frame time
  std::int64_t alloc_count = 0;  ///< worker-side allocations of the call
  std::int64_t alloc_bytes = 0;
  std::int32_t grain = 0;        ///< effective grain used
};

namespace detail {

template <core::Bisectable P>
using ParFrame = core::detail::BaFrame<P, core::detail::BuildContext<P>>;

/// What a worker reports for one frontier frame.
struct FrameResult {
  std::int64_t bisections = 0;
  std::int64_t busy_ns = 0;
  lbb::stats::AllocStats allocs;
  core::BisectionTree subtree;  ///< the frame's local tree, when recording
};

/// Caller-thread scratch reused across calls.
template <core::Bisectable P>
struct ParScratch {
  core::TrialWorkspace<P> ws;  ///< the frontier descent's stack
  std::vector<ParFrame<P>> frontier;
  std::vector<FrameResult> results;
  std::vector<std::optional<core::Piece<P>>> staging;
};

/// The frames phase's view of one call: references into the caller's
/// scratch, taken before the fork (on a worker, the name of a caller
/// thread_local would denote the worker's own instance).
template <core::Bisectable P>
struct FrameJob {
  ParFrame<P>* frames;
  FrameResult* results;
  std::optional<core::Piece<P>>* staging;
  double prune_below;             ///< BA' iff >= 0
  std::int32_t switch_threshold;  ///< BA-HF iff > 0
  bool record;
};

/// Finishes frontier frame `i` with the sequential kernel on this worker,
/// writing its pieces into the staging slots.  Absolute proc_lo/depth go
/// straight through; node ids are local to the frame's subtree and
/// remapped by stitch_tree after the join.
template <core::Bisectable P>
void run_frame(const FrameJob<P>& job, std::size_t i) {
  using Clock = std::chrono::steady_clock;
  const auto allocs_before = lbb::stats::alloc_stats();
  const auto start = Clock::now();
  // One workspace per (worker thread, problem type); warm after the first
  // few frames, then allocation-free like any sequential trial loop.
  static thread_local core::TrialWorkspace<P> ws;
  ParFrame<P>& f = job.frames[i];
  core::Partition<P> tmp;
  tmp.pieces = ws.take_pieces(static_cast<std::size_t>(f.n));
  core::detail::BuildContext<P> bctx(tmp, job.record);
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
  for (auto& piece : tmp.pieces) {
    job.staging[piece.processor].emplace(std::move(piece));
  }
  FrameResult& result = job.results[i];
  result.bisections = tmp.bisections;
  if (job.record) result.subtree = std::move(tmp.tree);
  ws.recycle(std::move(tmp));
  result.busy_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - start)
                       .count();
  result.allocs = lbb::stats::alloc_stats() - allocs_before;
}

/// Builds the output tree from the prefix tree and the frames' local
/// subtrees, patching staged pieces' node ids along the way.
///
/// The walk visits the prefix tree heavier (left) child first.  An
/// internal prefix node adds its bisection to `tree`; a prefix leaf is a
/// frontier frame, whose local subtree (root 0; local bisection j created
/// nodes 2j+1 and 2j+2) is spliced in with local id l -> (l == 0 ? the
/// leaf's id : base + l - 1).  Since the sequential kernels bisect a
/// subtree's nodes contiguously, heavier subtree first, this replays the
/// sequential creation order.
template <core::Bisectable P>
void stitch_tree(core::BisectionTree& tree, const core::BisectionTree& prefix,
                 const FrameJob<P>& job, std::size_t frames) {
  std::vector<std::size_t> frame_of(prefix.size());
  for (std::size_t i = 0; i < frames; ++i) {
    frame_of[static_cast<std::size_t>(job.frames[i].tag.node)] = i;
  }
  // (prefix node, output node) pairs still to visit.
  std::vector<std::pair<core::NodeId, core::NodeId>> stack;
  stack.emplace_back(0, 0);
  while (!stack.empty()) {
    const auto [pre, at] = stack.back();
    stack.pop_back();
    const core::BisectionTree::Node& node = prefix.node(pre);
    if (node.left != core::kNoNode) {
      const auto [left, right] =
          tree.add_bisection(at, prefix.node(node.left).weight,
                             prefix.node(node.right).weight);
      stack.emplace_back(node.right, right);
      stack.emplace_back(node.left, left);
      continue;
    }
    const std::size_t i = frame_of[static_cast<std::size_t>(pre)];
    const core::BisectionTree& sub = job.results[i].subtree;
    const auto base = static_cast<core::NodeId>(tree.size());
    const auto to_global = [&](core::NodeId local) {
      return local == 0 ? at : base + local - 1;
    };
    for (std::size_t j = 0; 2 * j + 2 < sub.size(); ++j) {
      const auto& left = sub.node(static_cast<core::NodeId>(2 * j + 1));
      const auto& right = sub.node(static_cast<core::NodeId>(2 * j + 2));
      tree.add_bisection(to_global(left.parent), left.weight, right.weight);
    }
    const ParFrame<P>& f = job.frames[i];
    for (core::ProcessorId p = f.tag.proc_lo; p < f.tag.proc_lo + f.n; ++p) {
      if (job.staging[p].has_value()) {
        job.staging[p]->node = to_global(job.staging[p]->node);
      }
    }
  }
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
  const std::int32_t grain = effective_grain(opt.grain, n, pool.size());

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
  // Not assign(): optional<Piece<P>> is move-only for move-only P.
  for (auto& slot : scratch.staging) slot.reset();
  if (scratch.staging.size() < static_cast<std::size_t>(n)) {
    scratch.staging.resize(static_cast<std::size_t>(n));
  }

  // Phase 1: the frontier descent.
  scratch.frontier.clear();
  core::Partition<P> prefix;
  core::detail::BuildContext<P> pctx(prefix, record);
  const core::NodeId root = pctx.root(out.total_weight);
  core::detail::ba_descend(
      pctx, scratch.ws,
      ParFrame<P>(std::move(problem), out.total_weight, n, {0, 0, root}),
      [&](const ParFrame<P>& f) {
        return f.n <= grain || f.weight <= prune_below ||
               f.n < switch_threshold;
      },
      [&](ParFrame<P>& f) { scratch.frontier.push_back(std::move(f)); });

  // Phase 2: the frames, on the pool.
  const std::size_t frames = scratch.frontier.size();
  scratch.results.resize(frames);
  const FrameJob<P> job{scratch.frontier.data(), scratch.results.data(),
                        scratch.staging.data(), prune_below,
                        switch_threshold, record};
  const auto fork = Clock::now();
  parallel_for_chunks(pool, 0, static_cast<std::int64_t>(frames), 1,
                      [&job](std::int64_t i, std::int64_t, std::int64_t) {
                        run_frame(job, static_cast<std::size_t>(i));
                      });
  const auto join_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - fork)
                           .count();

  // Phase 3: compaction.
  std::int64_t busy_ns = 0;
  lbb::stats::AllocStats allocs;
  out.bisections = prefix.bisections;
  for (const FrameResult& result : scratch.results) {
    out.bisections += result.bisections;
    busy_ns += result.busy_ns;
    allocs.count += result.allocs.count;
    allocs.bytes += result.allocs.bytes;
  }
  if (record) {
    core::detail::BuildContext<P> tctx(out, /*record_tree=*/true);
    tctx.reserve(n);
    (void)tctx.root(out.total_weight);
    stitch_tree(out.tree, prefix.tree, job, frames);
  }
  for (auto& slot : scratch.staging) {
    if (!slot.has_value()) continue;  // BA' leaves gaps in pruned ranges
    out.max_depth = std::max(out.max_depth, slot->depth);
    out.pieces.push_back(std::move(*slot));
    slot.reset();
  }
  scratch.frontier.clear();

  if (stats != nullptr) {
    stats->spawns = static_cast<std::int64_t>(frames);
    stats->steals = 0;
    stats->idle_ns = std::max<std::int64_t>(
        0, static_cast<std::int64_t>(pool.size()) * join_ns - busy_ns);
    stats->alloc_count = allocs.count;
    stats->alloc_bytes = allocs.bytes;
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

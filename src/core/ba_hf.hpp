// Algorithm BA-HF (Figure 4 of the paper).
//
// Hybrid of BA and HF: while a subproblem still owns at least
// beta/alpha + 1 processors it is split BA-style (inherently parallel, no
// global communication); once the processor count of a subproblem drops
// below that threshold, the subproblem is partitioned with Algorithm HF.
// Theorem 8 bounds the ratio by e^((1-alpha)/beta) * r_alpha, which for
// beta >= 1/ln(1+eps) is within (1+eps) of HF's guarantee.
//
// Output: ba_hf_run writes through a sink (core/detail/build_context.hpp),
// as ba_run and hf_run do.
//
// Memory: the BA-style stack is ws.frames and the HF phase reuses the same
// workspace's heap/slot buffers (disjoint members, so both phases share one
// TrialWorkspace without conflict).
#pragma once

#include <stdexcept>
#include <utility>

#include "core/ba.hpp"
#include "core/bounds.hpp"
#include "core/detail/build_context.hpp"
#include "core/detail/scratch.hpp"
#include "core/hf.hpp"
#include "core/partition.hpp"
#include "core/problem.hpp"
#include "core/split.hpp"
#include "core/thread_annotations.hpp"
#include "core/workspace.hpp"

namespace lbb::core {

/// Parameters of Algorithm BA-HF.
struct BaHfParams {
  double alpha = 0.25;  ///< bisector quality of the problem class
  double beta = 1.0;    ///< threshold parameter (paper's Section 3.3 / 4)
};

namespace detail {

/// BA-HF driver: ba_run's descent while a frame owns at least
/// `switch_threshold` processors, hf_run below it, writing every piece to
/// `sink` at `at`.  The HF phases reuse ws's HF scratch.
template <typename Sink, Bisectable P>
LBB_HOT void ba_hf_run(Sink& sink, TrialWorkspace<P>& ws, P problem,
                       std::int32_t n, const typename Sink::FrameTag& at,
                       std::int32_t switch_threshold) {
  using Frame = BaHfFrame<P, Sink>;
  ba_descend(
      sink, ws, Frame(std::move(problem), 0.0, n, at),
      [switch_threshold](const Frame& f) { return f.n < switch_threshold; },
      [&sink, &ws](Frame& f) {
        hf_run(sink, ws, std::move(f.problem), f.n, f.tag);
      });
}

}  // namespace detail

/// Partitions `problem` into exactly `n` subproblems with Algorithm BA-HF,
/// drawing scratch and output storage from `ws`.
template <Bisectable P>
LBB_HOT [[nodiscard]] Partition<P> ba_hf_partition(
    TrialWorkspace<P>& ws, P problem, std::int32_t n,
    const BaHfParams& params, const PartitionOptions& opt = {}) {
  if (n < 1) throw std::invalid_argument("ba_hf_partition: n must be >= 1");
  require_valid_alpha(params.alpha);
  if (!(params.beta > 0.0)) {
    throw std::invalid_argument("ba_hf_partition: beta must be > 0");
  }
  Partition<P> out;
  out.processors = n;
  out.total_weight = problem.weight();
  out.pieces = ws.take_pieces(static_cast<std::size_t>(n));
  detail::BuildContext<P> ctx(out, opt.record_tree);
  // lbb-lint: allow(hot-alloc): BuildContext pre-sizing -- no-op on
  // the alloc-gated hot path (record_tree is false there).
  ctx.reserve(n);
  const NodeId root = ctx.root(out.total_weight);
  const std::int32_t threshold =
      ba_hf_switch_threshold(params.alpha, params.beta);
  detail::ba_hf_run(ctx, ws, std::move(problem), n, {0, 0, root}, threshold);
  return out;
}

/// Partitions `problem` into exactly `n` subproblems with Algorithm BA-HF.
template <Bisectable P>
[[nodiscard]] Partition<P> ba_hf_partition(P problem, std::int32_t n,
                                           const BaHfParams& params,
                                           const PartitionOptions& opt = {}) {
  TrialWorkspace<P> ws;
  return ba_hf_partition(ws, std::move(problem), n, params, opt);
}

}  // namespace lbb::core

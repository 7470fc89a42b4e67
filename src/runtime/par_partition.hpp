// Parallel BA / BA' / BA-HF on the work-stealing runtime, byte-identical
// to the sequential partitioners (ISSUE 6 tentpole).
//
// Decomposition: the recursion's natural processor-range splits are the
// tasks.  A task executes a *chain*: it repeatedly bisects its subproblem,
// spawns the lighter child (which owns the upper processor sub-range) onto
// the local deque, and continues with the heavier child -- exactly the
// paper's "p1 stays on P_i, p2 is sent to P_{i+n1}".  When a chain's
// processor count drops to the grain (or the family's own leaf/switch
// condition fires), the remaining sub-range is finished with the unmodified
// sequential kernel (detail::ba_run / ba_hf_run) on one worker, drawing
// scratch from a worker-thread-local TrialWorkspace.
//
// Determinism argument (why the output is byte-identical to sequential
// ba/ba_star/ba_hf for every thread count, grain and steal order):
//   1. Which frames exist, their processor ranges, and where chains end is
//      a pure function of (problem, weights, n, grain, family thresholds)
//      -- never of scheduling.  Work stealing only changes WHEN/WHERE a
//      frame runs, not WHICH frames run.
//   2. Every piece lands in a staging slot indexed by its absolute
//      processor id; ranges are disjoint, so there are no write conflicts
//      and no ordering sensitivity.  The sequential kernels emit pieces in
//      strictly increasing processor order (BA pops the heavier/low-range
//      child first; HF emits slots in creation order at proc_lo + i), so
//      compacting the staging array in ascending processor order
//      reproduces the sequential piece order exactly.
//   3. The recorded BisectionTree is rebuilt after the join by replaying
//      chain events and terminal subtrees in the sequential DFS order
//      (see detail::stitch_tree), which reassigns the exact sequential
//      node ids; piece->node links are patched through the same mapping.
//
// Allocation: the steady-state non-recording path performs ZERO heap
// allocations once warm -- task frames live in pre-allocated slots,
// terminal scratch in thread-local workspaces, staging in a caller-thread
// ParScratch, and the pieces vector can be recycled through a caller
// TrialWorkspace (the extended perf_alloc_gate_test pins this).  Tree
// recording allocates (the tree itself does), exactly like sequential.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "core/bisection_tree.hpp"
#include "core/bounds.hpp"
#include "core/detail/build_context.hpp"
#include "core/hf.hpp"
#include "core/partition.hpp"
#include "core/problem.hpp"
#include "core/split.hpp"
#include "core/workspace.hpp"
#include "runtime/work_stealing.hpp"

namespace lbb::runtime {

/// Knobs of a parallel partition call.
struct ParOptions {
  core::PartitionOptions partition;  ///< record_tree, as sequential
  /// Chains stop and run the sequential kernel once their processor count
  /// is <= grain.  0 = auto: n / (8 * workers), clamped to [1, 8192].
  /// Affects decomposition granularity only, never the output.
  std::int32_t grain = 0;
};

/// Per-call runtime counters (reported as par.* through RunContext by the
/// registered partitioners; also available directly).
struct ParStats {
  std::int64_t spawns = 0;       ///< tasks pushed to deques
  std::int64_t steals = 0;       ///< tasks executed by a non-owner
  std::int64_t idle_ns = 0;      ///< pool parked-time delta (approximate)
  std::int64_t alloc_count = 0;  ///< worker-side allocations of the job
  std::int64_t alloc_bytes = 0;
  std::int32_t grain = 0;        ///< effective grain used
};

namespace detail {

enum class ParFamily { kBa, kBaStar, kBaHf };

/// Chain-recording node for tree stitching: one fragment per task (chain),
/// holding the chain's bisection events in order and its terminal run.
/// Only populated when record_tree is set.
struct Fragment {
  struct ChainEvent {
    double heavy_weight;  ///< left/heavier child (the chain continues)
    double light_weight;  ///< right/lighter child (spawned)
    Fragment* light;      ///< the spawned child's fragment
  };
  std::vector<ChainEvent> events;
  std::int32_t term_lo = 0;           ///< terminal's processor range start
  std::int32_t term_n = 0;            ///< terminal's processor count
  core::BisectionTree subtree;        ///< terminal kernel's local tree
};

/// The typed job block: parameters, staging output and fragment arenas.
template <core::Bisectable P>
class ParJob : public ParJobBase {
 public:
  ParFamily family = ParFamily::kBa;
  double prune_below = -1.0;          ///< BA' threshold (absolute weight)
  std::int32_t switch_threshold = 0;  ///< BA-HF's HF switch
  std::int32_t grain = 1;
  bool record = false;
  WorkStealingPool* ws_pool = nullptr;
  /// Pre-sized output slots, indexed by absolute processor id.  Disjoint
  /// terminal ranges mean disjoint writes; engaged entries are compacted
  /// in ascending processor order after the join.
  std::optional<core::Piece<P>>* staging = nullptr;
  /// Per-worker fragment arenas (std::deque: stable addresses under
  /// emplace_back, so fragments can be handed across workers).  Sized to
  /// the pool's worker count when recording; untouched otherwise.
  std::vector<std::deque<Fragment>> frag_arena;
  Fragment root_frag;
};

/// One task frame.  Placement-constructed into a TaskSlot's payload; falls
/// back to the fully sequential kernel at compile time when too large.
template <core::Bisectable P>
struct ParFrame {
  ParJob<P>* job;
  P problem;
  double weight;
  std::int32_t n;
  core::ProcessorId proc_lo;
  std::int32_t depth;
  Fragment* frag;  ///< nullptr unless recording
};

template <core::Bisectable P>
inline constexpr bool frame_fits_slot_v =
    sizeof(ParFrame<P>) <= TaskSlot::kPayloadBytes &&
    alignof(ParFrame<P>) <= alignof(std::max_align_t);

/// True when the chain must stop and hand the frame to the sequential
/// kernel.  Supersets of the sequential leaf/switch conditions, so the
/// kernel's own first-iteration checks reproduce sequential behavior.
template <core::Bisectable P>
[[nodiscard]] bool chain_terminal(const ParJob<P>& job,
                                  const ParFrame<P>& f) noexcept {
  if (f.n <= job.grain) return true;
  switch (job.family) {
    case ParFamily::kBa:
      return f.n == 1;
    case ParFamily::kBaStar:
      return f.n == 1 || f.weight <= job.prune_below;
    case ParFamily::kBaHf:
      return f.n < job.switch_threshold;
  }
  return true;
}

/// Runs the sequential kernel over the frame's whole processor sub-range
/// on this worker, writing pieces into the staging slots.  Absolute
/// proc_lo/depth go straight through; node ids are local to the terminal's
/// subtree and remapped by stitch_tree after the join.
template <core::Bisectable P>
void run_terminal(ParJob<P>& job, ParFrame<P> f) {
  // One workspace per (worker thread, problem type); warm after the first
  // few terminals, then allocation-free like any sequential trial loop.
  static thread_local core::TrialWorkspace<P> ws;
  core::Partition<P> tmp;
  tmp.pieces = ws.take_pieces(static_cast<std::size_t>(f.n));
  core::detail::BuildContext<P> bctx(tmp, job.record);
  bctx.reserve(f.n);
  const typename core::detail::BuildContext<P>::FrameTag at{
      f.proc_lo, f.depth, bctx.root(f.weight)};
  switch (job.family) {
    case ParFamily::kBa:
      core::detail::ba_run(bctx, ws, std::move(f.problem), f.n, at, -1.0);
      break;
    case ParFamily::kBaStar:
      core::detail::ba_run(bctx, ws, std::move(f.problem), f.n, at,
                           job.prune_below);
      break;
    case ParFamily::kBaHf:
      core::detail::ba_hf_run(bctx, ws, std::move(f.problem), f.n, at,
                              job.switch_threshold);
      break;
  }
  job.bisections.fetch_add(tmp.bisections);
  for (auto& piece : tmp.pieces) {
    job.staging[piece.processor].emplace(std::move(piece));
  }
  if (job.record) {
    f.frag->term_lo = f.proc_lo;
    f.frag->term_n = f.n;
    f.frag->subtree = std::move(tmp.tree);
  }
  ws.recycle(std::move(tmp));
}

template <core::Bisectable P>
void run_chain(ParJob<P>& job, ParFrame<P> f);

/// Executes a spawned frame: moves it off the slot, releases the slot for
/// immediate reuse, then runs the chain.  Exceptions propagate to the pool
/// loop, which routes them into the job.
template <core::Bisectable P>
void chain_trampoline(TaskSlot* slot) {
  auto* payload = reinterpret_cast<ParFrame<P>*>(slot->payload);
  ParFrame<P> frame = std::move(*payload);
  payload->~ParFrame<P>();
  frame.job->ws_pool->release_slot(slot);
  run_chain(*frame.job, std::move(frame));
}

/// Spawns the lighter child as a task on the current worker's deque, or
/// runs it inline when the slab/deque is exhausted (output is unaffected:
/// the decomposition is structure-determined).
template <core::Bisectable P>
void spawn_light(ParJob<P>& job, ParFrame<P>&& frame) {
  WorkStealingPool::Worker* worker = job.ws_pool->current_worker();
  TaskSlot* slot =
      worker != nullptr ? job.ws_pool->acquire_slot(*worker) : nullptr;
  if (slot == nullptr) {
    run_chain(job, std::move(frame));
    return;
  }
  ::new (static_cast<void*>(slot->payload)) ParFrame<P>(std::move(frame));
  slot->run = &chain_trampoline<P>;
  slot->job = &job;
  // Count the task before publishing it; the executing worker's
  // complete_one() balances this increment.
  job.pending.fetch_add(1);
  job.spawns.fetch_add(1);
  if (!job.ws_pool->push_local(*worker, slot)) {
    // Deque full (cannot happen while deque capacity == slab size, but
    // handled for robustness): revert and execute inline.
    job.pending.fetch_sub(1);
    job.spawns.fetch_sub(1);
    auto* payload = reinterpret_cast<ParFrame<P>*>(slot->payload);
    ParFrame<P> reclaimed = std::move(*payload);
    payload->~ParFrame<P>();
    job.ws_pool->release_slot(slot);
    run_chain(job, std::move(reclaimed));
  }
}

/// The chain: bisect, spawn the lighter child, continue with the heavier
/// one; finish the sub-range sequentially at the terminal condition.
/// Mirrors detail::ba_run / ba_hf_run's split decisions exactly.
template <core::Bisectable P>
void run_chain(ParJob<P>& job, ParFrame<P> f) {
  if (job.failed.load()) return;  // bail early
  std::int64_t chain_bisections = 0;
  for (;;) {
    if (chain_terminal(job, f)) {
      run_terminal(job, std::move(f));
      break;
    }
    auto [left, right] = f.problem.bisect();
    double wl = left.weight();
    double wr = right.weight();
    if (wl < wr) {
      std::swap(left, right);
      std::swap(wl, wr);
    }
    ++chain_bisections;
    const std::int32_t n1 = core::ba_split_processors(wl, wr, f.n);
    const std::int32_t depth = f.depth + 1;
    Fragment* light_frag = nullptr;
    if (job.record) {
      WorkStealingPool::Worker* worker = job.ws_pool->current_worker();
      // Each worker appends to its own arena only; std::deque keeps every
      // earlier fragment's address stable.
      auto& arena =
          job.frag_arena[worker != nullptr
                             ? static_cast<std::size_t>(worker->id)
                             : 0];
      light_frag = &arena.emplace_back();
      f.frag->events.push_back(
          Fragment::ChainEvent{wl, wr, light_frag});
    }
    spawn_light(job,
                ParFrame<P>{&job, std::move(right), wr, f.n - n1,
                            f.proc_lo + static_cast<core::ProcessorId>(n1),
                            depth, light_frag});
    f.problem = std::move(left);
    f.weight = wl;
    f.n = n1;
    f.depth = depth;
    if (job.failed.load()) {
      job.bisections.fetch_add(chain_bisections);
      return;
    }
  }
  job.bisections.fetch_add(chain_bisections);
}

/// Rebuilds the global BisectionTree in sequential DFS order from the
/// fragment graph, patching staged pieces' node ids along the way.
///
/// Sequential numbering: set_root gives id 0; each bisection assigns the
/// children (size, size+1); the DFS descends the heavier/left child fully
/// before the lighter/right one.  A chain IS a left spine, so replaying a
/// fragment's events in order, then its terminal subtree, then the spawned
/// light children in reverse order (one shared LIFO stack does exactly
/// this) visits bisections in the sequential creation order -- hence ids,
/// parents, child links and depths all come out identical.
///
/// Terminal subtrees are local trees with root 0 whose bisection j created
/// nodes (2j+1, 2j+2); mapping local id l -> (l == 0 ? entry : base+l-1)
/// aligns them with the globally assigned ids.
template <core::Bisectable P>
void stitch_tree(core::BisectionTree& tree, Fragment* root,
                 std::optional<core::Piece<P>>* staging) {
  std::vector<std::pair<Fragment*, core::NodeId>> stack;
  stack.emplace_back(root, 0);
  while (!stack.empty()) {
    auto [frag, entry] = stack.back();
    stack.pop_back();
    core::NodeId cur = entry;
    for (const Fragment::ChainEvent& event : frag->events) {
      const auto [heavy_id, light_id] =
          tree.add_bisection(cur, event.heavy_weight, event.light_weight);
      stack.emplace_back(event.light, light_id);
      cur = heavy_id;
    }
    // Replay the terminal's local subtree.  Local bisection j reads its
    // parent and child weights from local nodes 2j+1 / 2j+2.
    const core::BisectionTree& sub = frag->subtree;
    const core::NodeId base = static_cast<core::NodeId>(tree.size());
    const std::size_t sub_bisections =
        sub.empty() ? 0 : (sub.size() - 1) / 2;
    const auto to_global = [&](core::NodeId local) {
      return local == 0 ? cur : base + local - 1;
    };
    for (std::size_t j = 0; j < sub_bisections; ++j) {
      const auto& left = sub.node(static_cast<core::NodeId>(2 * j + 1));
      const auto& right = sub.node(static_cast<core::NodeId>(2 * j + 2));
      tree.add_bisection(to_global(left.parent), left.weight, right.weight);
    }
    for (std::int32_t p = frag->term_lo; p < frag->term_lo + frag->term_n;
         ++p) {
      if (staging[p].has_value()) {
        staging[p]->node = to_global(staging[p]->node);
      }
    }
  }
}

/// Caller-thread scratch reused across calls: the staging slots and the
/// root task's slot (caller-owned: released as a no-op by the trampoline).
template <core::Bisectable P>
struct ParScratch {
  std::vector<std::optional<core::Piece<P>>> staging;
  TaskSlot root_slot;
};

[[nodiscard]] inline std::int32_t effective_grain(std::int32_t requested,
                                                  std::int32_t n,
                                                  unsigned workers) {
  if (requested > 0) return requested;
  const std::int32_t auto_grain =
      n / (8 * static_cast<std::int32_t>(workers));
  return std::clamp(auto_grain, 1, 8192);
}

/// Shared driver of the three public entry points.
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_run(WorkStealingPool& pool,
                                         core::TrialWorkspace<P>* caller_ws,
                                         P problem, std::int32_t n,
                                         ParFamily family, double prune_below,
                                         std::int32_t switch_threshold,
                                         const ParOptions& opt,
                                         ParStats* stats) {
  if (pool.current_worker() != nullptr) {
    throw std::logic_error(
        "parallel partition: blocking call from a pool worker would "
        "deadlock the job's join");
  }
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

  ParJob<P> job;
  job.family = family;
  job.prune_below = prune_below;
  job.switch_threshold = switch_threshold;
  job.grain = grain;
  job.record = record;
  job.ws_pool = &pool;
  job.staging = scratch.staging.data();
  if (record) job.frag_arena.resize(pool.size());

  const std::int64_t idle_before = pool.idle_ns_total();
  TaskSlot& root = scratch.root_slot;
  ::new (static_cast<void*>(root.payload)) ParFrame<P>{
      &job, std::move(problem), out.total_weight, n, 0, 0,
      record ? &job.root_frag : nullptr};
  root.run = &chain_trampoline<P>;
  root.job = &job;
  job.pending.store(1);
  pool.inject(&root, &job);
  job.wait();

  if (std::exception_ptr err = job.take_error()) {
    // Staging may be partially filled; the next call's assign() clears it.
    std::rethrow_exception(err);
  }

  out.bisections = job.bisections.load();
  if (record) {
    core::detail::BuildContext<P> tctx(out, /*record_tree=*/true);
    tctx.reserve(n);
    (void)tctx.root(out.total_weight);
    stitch_tree(out.tree, &job.root_frag, scratch.staging.data());
  }
  for (auto& slot : scratch.staging) {
    if (!slot.has_value()) continue;  // BA' leaves gaps in pruned ranges
    out.max_depth = std::max(out.max_depth, slot->depth);
    out.pieces.push_back(std::move(*slot));
    slot.reset();
  }

  if (stats != nullptr) {
    stats->spawns = job.spawns.load();
    stats->steals = job.steals.load();
    stats->idle_ns = pool.idle_ns_total() - idle_before;
    stats->alloc_count = job.alloc_count.load();
    stats->alloc_bytes = job.alloc_bytes.load();
    stats->grain = grain;
  }
  return out;
}

/// Oversized-frame fallback: run the sequential counterpart outright
/// (byte-identical by definition).  Selected at compile time.
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_run_sequential(
    core::TrialWorkspace<P>* caller_ws, P problem, std::int32_t n,
    ParFamily family, double alpha, double beta, const ParOptions& opt,
    ParStats* stats) {
  if (stats != nullptr) *stats = ParStats{};
  core::TrialWorkspace<P> local_ws;
  core::TrialWorkspace<P>& ws =
      caller_ws != nullptr ? *caller_ws : local_ws;
  switch (family) {
    case ParFamily::kBaStar:
      return core::ba_star_partition(ws, std::move(problem), n, alpha,
                                     opt.partition);
    case ParFamily::kBaHf:
      return core::ba_hf_partition(ws, std::move(problem), n,
                                   core::BaHfParams{alpha, beta},
                                   opt.partition);
    case ParFamily::kBa:
      break;
  }
  return core::ba_partition(ws, std::move(problem), n, opt.partition);
}

}  // namespace detail

/// Partitions `problem` into exactly `n` subproblems with Algorithm BA on
/// `pool`'s worker threads.  Output (pieces, order, counters, recorded
/// tree) is byte-identical to core::ba_partition for every thread count.
/// Do not call from a task running on `pool` (the join would deadlock);
/// concurrent calls from distinct caller threads are fully supported.
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_ba_partition(
    WorkStealingPool& pool, core::TrialWorkspace<P>& ws, P problem,
    std::int32_t n, const ParOptions& opt = {}, ParStats* stats = nullptr) {
  if (n < 1) throw std::invalid_argument("par_ba_partition: n must be >= 1");
  if constexpr (!detail::frame_fits_slot_v<P>) {
    return detail::par_run_sequential(&ws, std::move(problem), n,
                                      detail::ParFamily::kBa, 0.25, 1.0, opt,
                                      stats);
  } else {
    return detail::par_run(pool, &ws, std::move(problem), n,
                           detail::ParFamily::kBa, /*prune_below=*/-1.0,
                           /*switch_threshold=*/0, opt, stats);
  }
}

/// Workspace-free form (fresh pieces storage per call; identical output).
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_ba_partition(
    WorkStealingPool& pool, P problem, std::int32_t n,
    const ParOptions& opt = {}, ParStats* stats = nullptr) {
  if (n < 1) throw std::invalid_argument("par_ba_partition: n must be >= 1");
  if constexpr (!detail::frame_fits_slot_v<P>) {
    return detail::par_run_sequential<P>(nullptr, std::move(problem), n,
                                         detail::ParFamily::kBa, 0.25, 1.0,
                                         opt, stats);
  } else {
    return detail::par_run<P>(pool, nullptr, std::move(problem), n,
                              detail::ParFamily::kBa, /*prune_below=*/-1.0,
                              /*switch_threshold=*/0, opt, stats);
  }
}

/// Algorithm BA' (BA pruned at the PHF phase-1 weight threshold) on the
/// pool; byte-identical to core::ba_star_partition.
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_ba_star_partition(
    WorkStealingPool& pool, P problem, std::int32_t n, double alpha,
    const ParOptions& opt = {}, ParStats* stats = nullptr) {
  if (n < 1) {
    throw std::invalid_argument("par_ba_star_partition: n must be >= 1");
  }
  core::require_valid_alpha(alpha);
  if constexpr (!detail::frame_fits_slot_v<P>) {
    return detail::par_run_sequential<P>(nullptr, std::move(problem), n,
                                         detail::ParFamily::kBaStar, alpha,
                                         1.0, opt, stats);
  } else {
    const double threshold =
        core::phf_phase1_threshold(alpha, problem.weight(), n);
    return detail::par_run<P>(pool, nullptr, std::move(problem), n,
                              detail::ParFamily::kBaStar, threshold,
                              /*switch_threshold=*/0, opt, stats);
  }
}

/// Algorithm BA-HF on the pool; byte-identical to core::ba_hf_partition.
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_ba_hf_partition(
    WorkStealingPool& pool, P problem, std::int32_t n,
    const core::BaHfParams& params = {}, const ParOptions& opt = {},
    ParStats* stats = nullptr) {
  if (n < 1) {
    throw std::invalid_argument("par_ba_hf_partition: n must be >= 1");
  }
  core::require_valid_alpha(params.alpha);
  if (!(params.beta > 0.0)) {
    throw std::invalid_argument("par_ba_hf_partition: beta must be > 0");
  }
  if constexpr (!detail::frame_fits_slot_v<P>) {
    return detail::par_run_sequential<P>(nullptr, std::move(problem), n,
                                         detail::ParFamily::kBaHf,
                                         params.alpha, params.beta, opt,
                                         stats);
  } else {
    const std::int32_t threshold =
        core::ba_hf_switch_threshold(params.alpha, params.beta);
    return detail::par_run<P>(pool, nullptr, std::move(problem), n,
                              detail::ParFamily::kBaHf, /*prune_below=*/-1.0,
                              threshold, opt, stats);
  }
}

}  // namespace lbb::runtime

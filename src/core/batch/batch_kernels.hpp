// Batched (structure-of-arrays) HF / BA / BA' / BA-HF drivers.
//
// Each driver advances B independent trials ("lanes") of the same algorithm
// in lockstep over a BatchWorkspace: gather the per-lane frontier into dense
// staging arrays, run the bisection arithmetic as one contiguous loop across
// lanes (the loop the model can vectorize), scatter the children back into
// the per-lane heaps/stacks.  The drivers are templated on a LaneModel --
// a problem class expressed as pure functions over (node_hash, weight)
// pairs -- so this layer stays free of any problems/ dependency:
//
//   struct LaneModel {
//     // Children of one node; first pair is the heavier-or-equal child and
//     // must match the scalar problem's bisect() bit for bit.
//     void bisect(u64 hash, double w, u64& heavy_hash, double& heavy_w,
//                 u64& light_hash, double& light_w) const;
//     // Dense form over `count` nodes; identical arithmetic per element.
//     void bisect_lanes(i32 count, const u64* hash, const double* w,
//                       u64* heavy_hash, double* heavy_w,
//                       u64* light_hash, double* light_w) const;
//   };
//
// Byte-identity to the scalar kernels (the contract the scalar-vs-batched
// golden gate asserts):
//   * Per lane, the pop/bisect order is exactly the scalar order -- the HF
//     priority (weight, seq) is a total order, lane_heap_push/pop replicate
//     HfHeap's sift logic, and the weight-band queue hf_lane_run uses from
//     detail::kHfBandMinPieces pieces on pops HfHeap's sequence; the BA
//     stacks push right-then-left like ba_run.  Lockstep interleaving
//     across lanes cannot perturb a lane's own sequence because draws are
//     path-hashed (pure functions of the node hash), not consumed from a
//     shared stream.
//   * Every weight is produced by the same inline expression on the same
//     inputs as the scalar path ((1-alpha)*w / alpha*w, no reassociation),
//     so each node's weight is bitwise equal.
//   * The only outputs -- max piece weight and bisection count -- are
//     order-independent reductions of those bitwise-equal values.
//
// The drivers emit no pieces and record no tree: callers needing a
// Partition use the scalar kernels (experiments/batch_trials.cpp routes
// only piece-free builtin configurations here).
#pragma once

#include <cstdint>
#include <type_traits>

#include "core/batch/batch_workspace.hpp"
#include "core/simd/dispatch.hpp"
#include "core/split.hpp"
#include "core/thread_annotations.hpp"

namespace lbb::core::batch {

/// A lane's raw-buffer 4-ary heap (lane_heap_push/pop) behind the queue
/// interface hf_lane_select shares with detail::HfBandQueue.
struct LaneHeap {
  HfHeapEntry* h;
  std::int32_t size = 0;

  LBB_HOT void push(HfHeapEntry e) noexcept { lane_heap_push(h, size, e); }
  LBB_HOT HfHeapEntry pop() noexcept { return lane_heap_pop(h, size); }
  [[nodiscard]] const HfHeapEntry& top() const noexcept { return h[0]; }
};

/// hf_lane_run's selection loop over slot arrays `sh`/`sw` whose slot 0
/// holds the root; `queue` is empty.  Mirrors detail::hf_select, so both
/// queue types pop in HfHeap's total order.
template <typename Model, typename Queue>
LBB_HOT inline void hf_lane_select(BatchWorkspace& ws, const Model& model,
                                   std::int32_t l, std::uint64_t* sh,
                                   double* sw, Queue& queue, std::int32_t n) {
  std::int64_t seq = 0;
  std::int32_t used = 1;
  // Hand-held maximum, exactly as hf_select: the priority is a total order,
  // so keeping the strict max outside the queue changes no pop -- it skips
  // the push + pop pair whenever the heavier child immediately outweighs
  // every queued entry.  Ties go through the queue (smaller seq wins).
  HfHeapEntry hand{sw[0], seq++, 0};
  for (std::int32_t live = 1; live < n; ++live) {
    std::uint64_t hh;
    std::uint64_t lh;
    double hw;
    double lw;
    model.bisect(sh[hand.slot], sw[hand.slot], hh, hw, lh, lw);
    // Canonical order: left child is the heavier-or-equal one (mirrors
    // hf_run's swap; a no-op for models whose heavy output is exact).
    if (hw < lw) {
      const std::uint64_t th = hh;
      hh = lh;
      lh = th;
      const double tw = hw;
      hw = lw;
      lw = tw;
    }
    sh[hand.slot] = hh;
    sw[hand.slot] = hw;
    const HfHeapEntry heavy_entry{hw, seq++, hand.slot};
    sh[used] = lh;
    sw[used] = lw;
    queue.push(HfHeapEntry{lw, seq++, used});
    ++used;
    ++ws.lane_bisections[l];
    if (live + 1 < n && hw > queue.top().weight) {
      hand = heavy_entry;
    } else {
      queue.push(heavy_entry);
      if (live + 1 < n) hand = queue.pop();
    }
    if constexpr (std::is_same_v<Queue, detail::HfBandQueue>) {
      // Fetch the hot top's slot one bisection ahead (see hf_select).
      LBB_PREFETCH(sh + queue.top().slot);
      LBB_PREFETCH(sw + queue.top().slot);
    }
  }
}

/// Runs HF to completion on lane `l`'s scratch region for a subproblem
/// (`hash`, `w`) owning `n` processors, folding leaf weights into
/// ws.lane_max[l] and bisections into ws.lane_bisections[l].  This is the
/// whole-trial-per-lane path of hf_batch_run (n > kHfLockstepMaxPieces)
/// and the HF phase of ba_hf_batch_run (sub-threshold subproblems).  From
/// detail::kHfBandMinPieces pieces on it selects with the workspace's
/// weight-band queue (ws.hf_queue, shared by the lanes, which run one after
/// another); below that with the lane's raw 4-ary heap.  The queue is
/// reserved for the lane stride rather than for `n`: BA-HF hands in a
/// different `n` on every seed, and the stride fixes the pool size once
/// per prepare(), so a warm workspace never allocates here.
template <typename Model>
LBB_HOT inline void hf_lane_run(BatchWorkspace& ws, const Model& model,
                                std::int32_t l, std::uint64_t hash, double w,
                                std::int32_t n) {
  if (n == 1) {
    if (w > ws.lane_max[l]) ws.lane_max[l] = w;
    return;
  }
  const auto base = static_cast<std::size_t>(l) *
                    static_cast<std::size_t>(ws.stride());
  std::uint64_t* sh = ws.slot_hash.data() + base;
  double* sw = ws.slot_weight.data() + base;
  sh[0] = hash;
  sw[0] = w;
  if (n < detail::kHfBandMinPieces) {
    LaneHeap heap{ws.heap.data() + base};
    hf_lane_select(ws, model, l, sh, sw, heap, n);
  } else {
    ws.hf_queue.clear();
    ws.hf_queue.reserve(static_cast<std::size_t>(ws.stride()));
    hf_lane_select(ws, model, l, sh, sw, ws.hf_queue, n);
  }
  const simd::LaneKernels& k = simd::active();
  if (k.isa != simd::Isa::kScalar) {
    // max is exact and order-free over positive weights, so the vector
    // reduce returns the bitwise-same value as the scalar scan.
    const double m = k.max_f64(sw, n);
    if (m > ws.lane_max[l]) ws.lane_max[l] = m;
  } else {
    for (std::int32_t i = 0; i < n; ++i) {
      if (sw[i] > ws.lane_max[l]) ws.lane_max[l] = sw[i];
    }
  }
}

/// Lockstep HF over lanes [0, lanes): every lane performs exactly n-1
/// pop/bisect/push steps, with the bisection arithmetic of all lanes fused
/// into one dense bisect_lanes call per step.  Inputs: ws.root_hash /
/// ws.root_weight per lane.  Outputs: ws.lane_max / ws.lane_bisections.
/// Above this piece count hf_batch_run abandons lockstep for
/// whole-trial-per-lane: each lockstep step touches every lane's heap, a
/// working set of lanes * n * sizeof(HfHeapEntry) bytes that falls out of
/// L2 for large n and makes the batched path slower than scalar, while a
/// lane run keeps one selection structure hot until the trial finishes.
/// Outputs are identical either way (hf_lane_run pops in the same total
/// order).  Lane runs of this size select with the weight-band queue
/// (detail::kHfBandMinPieces is below this constant), which makes them
/// faster still; the lockstep comparison below predates that queue.
///
/// Re-tuned after the SIMD lane kernels landed (tail_study --algos=hf
/// --batch=16 --budget=0, equal-work trial counts, avx512 dispatch,
/// 3 runs/point): per-lane wins at every n >= 256 (e.g. n=2^10 per-lane
/// 1.02-1.06 s vs lockstep 1.13-1.28 s; n=2^12 1.23-1.35 s vs
/// 1.58-1.68 s) -- heap locality dominates even though only lockstep
/// vectorizes the bisect.  At n <= 128 the two are within run-to-run
/// noise (n=64: 0.073-0.084 s per-lane vs 0.079-0.098 s lockstep), so
/// the threshold sits at the top of the noise-equal range, keeping the
/// dense bisect_lanes path live in production-sized small-n runs.
inline constexpr std::int32_t kHfLockstepMaxPieces = 128;

template <typename Model>
LBB_HOT void hf_batch_run(BatchWorkspace& ws, const Model& model,
                          std::int32_t lanes, std::int32_t n) {
  if (n > kHfLockstepMaxPieces) {
    for (std::int32_t l = 0; l < lanes; ++l) {
      ws.lane_max[l] = 0.0;
      ws.lane_bisections[l] = 0;
      hf_lane_run(ws, model, l, ws.root_hash[l], ws.root_weight[l], n);
    }
    return;
  }
  const auto stride = static_cast<std::size_t>(ws.stride());
  for (std::int32_t l = 0; l < lanes; ++l) {
    ws.lane_bisections[l] = 0;
    if (n == 1) {
      ws.lane_max[l] = ws.root_weight[l];
      continue;
    }
    const std::size_t base = static_cast<std::size_t>(l) * stride;
    ws.slot_hash[base] = ws.root_hash[l];
    ws.slot_weight[base] = ws.root_weight[l];
    ws.heap_size[l] = 0;
    lane_heap_push(ws.heap.data() + base, ws.heap_size[l],
                   HfHeapEntry{ws.root_weight[l], 0, 0});
    ws.slots_used[l] = 1;
    ws.next_seq[l] = 1;
  }
  if (n == 1) return;

  const simd::LaneKernels& k = simd::active();
  for (std::int32_t step = 0; step < n - 1; ++step) {
    // Gather: pop each lane's heaviest slot into the staging arrays with
    // plain scalar loads.  A k.gather_pairs staging variant (record the
    // absolute offsets, one indexed vector gather) was measured here and
    // LOST ~5-8% end to end at batch=16 on avx512: hardware gathers are
    // microcoded on common cores, while these loads hit lines the pops
    // just touched.  The kernel stays in the LaneKernels table (pinned by
    // property_simd_lanes_test) for gather-friendly targets, but the
    // driver keeps the scalar loads; the dense bisect below and the max
    // reduce are where the vector tables actually pay.
    for (std::int32_t l = 0; l < lanes; ++l) {
      const std::size_t base = static_cast<std::size_t>(l) * stride;
      const HfHeapEntry top =
          lane_heap_pop(ws.heap.data() + base, ws.heap_size[l]);
      ws.stage_slot[l] = top.slot;
      ws.stage_hash[l] =
          ws.slot_hash[base + static_cast<std::size_t>(top.slot)];
      ws.stage_weight[l] =
          ws.slot_weight[base + static_cast<std::size_t>(top.slot)];
    }
    // Dense bisect across all lanes -- the vectorizable inner loop.
    model.bisect_lanes(lanes, ws.stage_hash.data(), ws.stage_weight.data(),
                       ws.heavy_hash.data(), ws.heavy_weight.data(),
                       ws.light_hash.data(), ws.light_weight.data());
    // Scatter: heavy child reuses the parent slot, light child opens one.
    for (std::int32_t l = 0; l < lanes; ++l) {
      const std::size_t base = static_cast<std::size_t>(l) * stride;
      std::uint64_t hh = ws.heavy_hash[l];
      double hw = ws.heavy_weight[l];
      std::uint64_t lh = ws.light_hash[l];
      double lw = ws.light_weight[l];
      if (hw < lw) {
        const std::uint64_t th = hh;
        hh = lh;
        lh = th;
        const double tw = hw;
        hw = lw;
        lw = tw;
      }
      const std::int32_t parent_slot = ws.stage_slot[l];
      ws.slot_hash[base + static_cast<std::size_t>(parent_slot)] = hh;
      ws.slot_weight[base + static_cast<std::size_t>(parent_slot)] = hw;
      lane_heap_push(ws.heap.data() + base, ws.heap_size[l],
                     HfHeapEntry{hw, ws.next_seq[l]++, parent_slot});
      const std::int32_t light_slot = ws.slots_used[l]++;
      ws.slot_hash[base + static_cast<std::size_t>(light_slot)] = lh;
      ws.slot_weight[base + static_cast<std::size_t>(light_slot)] = lw;
      lane_heap_push(ws.heap.data() + base, ws.heap_size[l],
                     HfHeapEntry{lw, ws.next_seq[l]++, light_slot});
      ++ws.lane_bisections[l];
    }
  }

  // Reduce: the final n slot weights per lane are the piece weights.  The
  // vector max is exact and order-free, hence bit-identical to the scan.
  if (k.isa != simd::Isa::kScalar) {
    for (std::int32_t l = 0; l < lanes; ++l) {
      const std::size_t base = static_cast<std::size_t>(l) * stride;
      ws.lane_max[l] = k.max_f64(ws.slot_weight.data() + base, n);
    }
  } else {
    for (std::int32_t l = 0; l < lanes; ++l) {
      const std::size_t base = static_cast<std::size_t>(l) * stride;
      double m = ws.slot_weight[base];
      for (std::int32_t i = 1; i < n; ++i) {
        const double w = ws.slot_weight[base + static_cast<std::size_t>(i)];
        if (w > m) m = w;
      }
      ws.lane_max[l] = m;
    }
  }
}

/// Lockstep BA / BA' over lanes [0, lanes).  `prune_below >= 0` emits
/// subproblems at or below that weight as leaves regardless of processor
/// count (Algorithm BA'); pass -1 for plain BA.  Per step, each live lane
/// drains leaves off its stack until it stages one internal frame; the
/// staged frames then bisect densely and push right-then-left like ba_run.
template <typename Model>
LBB_HOT void ba_batch_run(BatchWorkspace& ws, const Model& model,
                          std::int32_t lanes, std::int32_t n,
                          double prune_below) {
  const auto stride = static_cast<std::size_t>(ws.stride());
  for (std::int32_t l = 0; l < lanes; ++l) {
    const std::size_t base = static_cast<std::size_t>(l) * stride;
    ws.frame_hash[base] = ws.root_hash[l];
    ws.frame_weight[base] = ws.root_weight[l];
    ws.frame_n[base] = n;
    ws.frame_top[l] = 1;
    ws.lane_max[l] = 0.0;
    ws.lane_bisections[l] = 0;
  }

  for (;;) {
    // Gather: pop leaves until each lane stages one internal frame.
    std::int32_t staged = 0;
    for (std::int32_t l = 0; l < lanes; ++l) {
      const std::size_t base = static_cast<std::size_t>(l) * stride;
      while (ws.frame_top[l] > 0) {
        const std::size_t t =
            base + static_cast<std::size_t>(--ws.frame_top[l]);
        const double w = ws.frame_weight[t];
        const std::int32_t fn = ws.frame_n[t];
        if (fn == 1 || (prune_below >= 0.0 && w <= prune_below)) {
          if (w > ws.lane_max[l]) ws.lane_max[l] = w;
          continue;
        }
        ws.stage_lane[staged] = l;
        ws.stage_hash[staged] = ws.frame_hash[t];
        ws.stage_weight[staged] = w;
        ws.stage_n[staged] = fn;
        ++staged;
        break;
      }
    }
    if (staged == 0) break;

    // Dense bisect over the staged frames.
    model.bisect_lanes(staged, ws.stage_hash.data(), ws.stage_weight.data(),
                       ws.heavy_hash.data(), ws.heavy_weight.data(),
                       ws.light_hash.data(), ws.light_weight.data());

    // Scatter: split the processors and push right (lighter) then left, so
    // the next pop descends the heavy chain exactly like ba_run.
    for (std::int32_t i = 0; i < staged; ++i) {
      const std::int32_t l = ws.stage_lane[i];
      const std::size_t base = static_cast<std::size_t>(l) * stride;
      std::uint64_t hh = ws.heavy_hash[i];
      double hw = ws.heavy_weight[i];
      std::uint64_t lh = ws.light_hash[i];
      double lw = ws.light_weight[i];
      if (hw < lw) {
        const std::uint64_t th = hh;
        hh = lh;
        lh = th;
        const double tw = hw;
        hw = lw;
        lw = tw;
      }
      const std::int32_t n1 = ba_split_processors(hw, lw, ws.stage_n[i]);
      const std::int32_t n2 = ws.stage_n[i] - n1;
      std::size_t t = base + static_cast<std::size_t>(ws.frame_top[l]);
      ws.frame_hash[t] = lh;
      ws.frame_weight[t] = lw;
      ws.frame_n[t] = n2;
      ++t;
      ws.frame_hash[t] = hh;
      ws.frame_weight[t] = hw;
      ws.frame_n[t] = n1;
      ws.frame_top[l] += 2;
      ++ws.lane_bisections[l];
    }
  }
}

/// Lockstep BA-HF over lanes [0, lanes): BA-style splitting while a frame
/// owns >= switch_threshold processors, HF (hf_lane_run) below it --
/// mirroring ba_hf_run frame for frame.
template <typename Model>
LBB_HOT void ba_hf_batch_run(BatchWorkspace& ws, const Model& model,
                             std::int32_t lanes, std::int32_t n,
                             std::int32_t switch_threshold) {
  const auto stride = static_cast<std::size_t>(ws.stride());
  for (std::int32_t l = 0; l < lanes; ++l) {
    const std::size_t base = static_cast<std::size_t>(l) * stride;
    ws.frame_hash[base] = ws.root_hash[l];
    ws.frame_weight[base] = ws.root_weight[l];
    ws.frame_n[base] = n;
    ws.frame_top[l] = 1;
    ws.lane_max[l] = 0.0;
    ws.lane_bisections[l] = 0;
  }

  for (;;) {
    std::int32_t staged = 0;
    for (std::int32_t l = 0; l < lanes; ++l) {
      const std::size_t base = static_cast<std::size_t>(l) * stride;
      while (ws.frame_top[l] > 0) {
        const std::size_t t =
            base + static_cast<std::size_t>(--ws.frame_top[l]);
        const std::int32_t fn = ws.frame_n[t];
        if (fn < switch_threshold) {
          hf_lane_run(ws, model, l, ws.frame_hash[t], ws.frame_weight[t], fn);
          continue;
        }
        ws.stage_lane[staged] = l;
        ws.stage_hash[staged] = ws.frame_hash[t];
        ws.stage_weight[staged] = ws.frame_weight[t];
        ws.stage_n[staged] = fn;
        ++staged;
        break;
      }
    }
    if (staged == 0) break;

    model.bisect_lanes(staged, ws.stage_hash.data(), ws.stage_weight.data(),
                       ws.heavy_hash.data(), ws.heavy_weight.data(),
                       ws.light_hash.data(), ws.light_weight.data());

    for (std::int32_t i = 0; i < staged; ++i) {
      const std::int32_t l = ws.stage_lane[i];
      const std::size_t base = static_cast<std::size_t>(l) * stride;
      std::uint64_t hh = ws.heavy_hash[i];
      double hw = ws.heavy_weight[i];
      std::uint64_t lh = ws.light_hash[i];
      double lw = ws.light_weight[i];
      if (hw < lw) {
        const std::uint64_t th = hh;
        hh = lh;
        lh = th;
        const double tw = hw;
        hw = lw;
        lw = tw;
      }
      const std::int32_t n1 = ba_split_processors(hw, lw, ws.stage_n[i]);
      const std::int32_t n2 = ws.stage_n[i] - n1;
      std::size_t t = base + static_cast<std::size_t>(ws.frame_top[l]);
      ws.frame_hash[t] = lh;
      ws.frame_weight[t] = lw;
      ws.frame_n[t] = n2;
      ++t;
      ws.frame_hash[t] = hh;
      ws.frame_weight[t] = hw;
      ws.frame_n[t] = n1;
      ws.frame_top[l] += 2;
      ++ws.lane_bisections[l];
    }
  }
}

}  // namespace lbb::core::batch

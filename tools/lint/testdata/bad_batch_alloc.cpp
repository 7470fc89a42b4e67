// lbb-lint negative fixture: a trial kernel in the style of HF's tree walk
// (src/core/hf.hpp: an LBB_HOT loop filling workspace scratch arrays).
// The hot-alloc closure must flag growth of
// kernel-local containers -- the kernels' whole point is that per-run
// state lives in the workspace's recycled buffers -- while leaving
// workspace-rooted receivers alone.  Never compiled; exists so
// tools/lint/lbb_lint_test.py can prove the rule covers such kernels.
#include <vector>

#define LBB_HOT

struct LaneEntry {
  unsigned long long seq;
  double weight;
};

struct KernelWorkspace {
  std::vector<double> slot_weight;
  std::vector<LaneEntry> heap;
};

// Reachable one level down from the hot kernel: still in the closure.
inline void spill_lane(std::vector<LaneEntry>& out, LaneEntry e) {
  out.push_back(e);  // BAD: receiver not workspace-rooted
}

LBB_HOT inline void batch_lane_run(KernelWorkspace& ws, const double* w,
                                   int count) {
  std::vector<LaneEntry> overflow;
  overflow.reserve(static_cast<unsigned>(count));  // BAD: local growth
  for (int i = 0; i < count; ++i) {
    overflow.push_back(LaneEntry{0, w[i]});  // BAD
    ws.slot_weight.push_back(w[i]);          // OK: workspace vector
  }
  auto& heap = ws.heap;
  heap.emplace_back();                      // OK: alias of a ws member
  spill_lane(overflow, LaneEntry{1, 0.0});  // pulls spill_lane into closure
}

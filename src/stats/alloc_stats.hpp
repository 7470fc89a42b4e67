// Allocation accounting API (weak-linkage seam for the interposing probe).
//
// The library itself never counts allocations: the functions declared here
// have WEAK default definitions (stats/alloc_stats.cpp) that report zeros
// and alloc_probe_linked() == false.  Binaries that want real numbers --
// lbb_bench and the zero-allocation regression gate -- additionally compile
// tools/alloc_probe/alloc_probe.cpp, whose STRONG definitions replace the
// defaults at link time and back them with a global operator new/delete
// interposer keeping thread-local counters.
//
// This split keeps the layering clean (lbb_stats is the bottom layer and
// cannot depend on tools/) and keeps ordinary test/library binaries free of
// a global allocator replacement.
//
// Usage pattern (valid whether or not the probe is linked):
//
//   const auto before = lbb::stats::alloc_stats();
//   ... hot work ...
//   const auto delta = lbb::stats::alloc_stats() - before;
//   // delta.count / delta.bytes are 0 without the probe.
//
// Counters are per-thread: alloc_stats() reports the calling thread's
// allocations only, which is exactly the attribution a service worker's
// request or a work-stealing task needs (no cross-thread noise).
#pragma once

#include <cstdint>

namespace lbb::stats {

/// Snapshot of the calling thread's allocation counters (monotonic since
/// thread start; subtract two snapshots to get a delta).
struct AllocStats {
  std::int64_t count = 0;  ///< operator new calls
  std::int64_t bytes = 0;  ///< bytes requested by those calls
  std::int64_t frees = 0;  ///< operator delete calls

  AllocStats operator-(const AllocStats& rhs) const noexcept {
    return AllocStats{count - rhs.count, bytes - rhs.bytes,
                      frees - rhs.frees};
  }
};

/// Calling thread's allocation counters.  All-zero (and never advancing)
/// unless the allocation probe is linked into the binary.
[[nodiscard]] AllocStats alloc_stats() noexcept;

/// Resets the calling thread's counters to zero.  No-op without the probe.
void reset_alloc_stats() noexcept;

/// True when the strong probe definitions are linked (i.e. alloc_stats()
/// returns live data).  Tests use this to skip rather than vacuously pass.
[[nodiscard]] bool alloc_probe_linked() noexcept;

}  // namespace lbb::stats

// Registry hook and pool sharing for the par:* partitioner families
// (BA / BA' / BA-HF on ThreadPool workers; par_partition.hpp).
#pragma once

#include <cstdint>

#include "runtime/thread_pool.hpp"

namespace lbb::runtime {

/// Process-wide shared pool for a given worker count (0 = hardware
/// concurrency, min 1).  Pools are created on first use and live until
/// shutdown_shared_pools() or process exit, whichever comes first;
/// distinct thread counts get distinct pools so benchmark sweeps across
/// {1,2,4,8} threads measure genuinely different pools.
///
/// Lifetime contract: the cache is a function-local static constructed on
/// first use -- strictly after the PartitionerRegistry singleton any
/// factory touches -- so its exit-time destruction (which stops and joins
/// every pool) runs strictly BEFORE the registry's.  Resident embedders
/// (the partition service, long-lived drivers) should not rely on that
/// implicit teardown: call shutdown_shared_pools() once serving stops so
/// worker threads are joined at a point the embedder controls.
[[nodiscard]] ThreadPool& shared_pool(std::int32_t threads = 0);

/// Stops and joins every pool shared_pool() has created, releasing them.
/// References previously returned by shared_pool() are invalidated; a
/// later shared_pool() call builds a fresh pool, so shutdown/recreate
/// cycles are safe (the runtime regression tests exercise this under
/// tsan).  Idempotent; concurrent callers serialize on the cache lock.
/// Must not be called while a par:* run is in flight.
void shutdown_shared_pools();

/// Registers par:ba, par:ba_star and par:ba_hf in the global
/// PartitionerRegistry.  Idempotent; call before resolving names
/// (lbb_bench does this at startup, next to the sim registration).
///
/// The registered partitioners run through the type-erased AnyProblem
/// interface on shared_pool(config.threads) and report par.spawns /
/// par.idle_ns counters through the RunContext sink.  Their
/// output is byte-identical to the sequential ba / ba_star / ba_hf
/// partitioners for every thread count.  Note: arena-backed AnyProblems
/// must not cross threads (MonotonicArena is single-threaded); pass
/// heap/inline-backed problems, which is what every caller in this repo
/// constructs.
void register_par_partitioners();

}  // namespace lbb::runtime

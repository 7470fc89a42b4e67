// The old name of the pool the par:* partitioners run on, which is now
// ThreadPool (runtime/par_partition.hpp).  Only benchmark/large_n.cpp still
// spells it this way; the alias goes with the next change to benchmark/.
#pragma once

#include "runtime/thread_pool.hpp"

namespace lbb::runtime {

using WorkStealingPool = ThreadPool;

}  // namespace lbb::runtime

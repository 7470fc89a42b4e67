// Executes a computed partition on real worker threads and reports the
// realized balance -- the end-to-end payoff of the load-balancing
// algorithms: a partition with ratio r should finish in ~r/N of the serial
// time (plus scheduling noise).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "core/partition.hpp"
#include "runtime/thread_pool.hpp"

namespace lbb::runtime {

/// Measured outcome of running every piece of a partition.
struct ExecutionReport {
  std::vector<double> processor_busy;  ///< seconds of work per processor id
  double wall_seconds = 0.0;           ///< elapsed time on the pool

  /// max processor busy time / mean busy time; compares directly with
  /// Partition::ratio() when work is proportional to weight.
  [[nodiscard]] double imbalance() const {
    if (processor_busy.empty()) {
      throw std::logic_error("ExecutionReport: empty report");
    }
    double sum = 0.0;
    double max = 0.0;
    for (double b : processor_busy) {
      sum += b;
      max = std::max(max, b);
    }
    if (sum <= 0.0) return 1.0;
    return max / (sum / static_cast<double>(processor_busy.size()));
  }
};

/// Runs `work(piece.problem)` for every piece on `pool`, attributing busy
/// time to the piece's assigned processor.  `work` must be thread-safe.
template <lbb::core::Bisectable P, typename Work>
ExecutionReport execute_partition(const lbb::core::Partition<P>& partition,
                                  ThreadPool& pool, Work work) {
  if (partition.pieces.empty()) {
    throw std::invalid_argument("execute_partition: empty partition");
  }
  ExecutionReport report;
  report.processor_busy.assign(
      static_cast<std::size_t>(partition.processors), 0.0);
  std::vector<std::atomic<double>> busy(
      static_cast<std::size_t>(partition.processors));
  for (auto& b : busy) b.store(0.0);

  const auto wall_start = std::chrono::steady_clock::now();
  for (const auto& piece : partition.pieces) {
    const auto proc = static_cast<std::size_t>(piece.processor);
    const P* problem = &piece.problem;
    pool.submit([problem, proc, &busy, &work] {
      const auto start = std::chrono::steady_clock::now();
      work(*problem);
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      // One piece per processor id: a plain store would do, but keep the
      // accumulation robust to future multi-piece assignments.
      // seq_cst (free for RMW on x86): the lbb-lint memory-order rule
      // bans weaker orders.
      double expected = busy[proc].load();
      while (!busy[proc].compare_exchange_weak(
          expected, expected + elapsed.count())) {
      }
    });
  }
  pool.wait_idle();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  report.wall_seconds = wall.count();
  for (std::size_t i = 0; i < busy.size(); ++i) {
    report.processor_busy[i] = busy[i].load();
  }
  return report;
}

}  // namespace lbb::runtime

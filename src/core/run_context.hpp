// RunContext: the per-run spine threaded through core -> sim ->
// experiments -> bench.
//
// Every partitioning run (a registry dispatch, an experiment trial, a
// simulated execution) carries one RunContext.  It holds
//
//   * the run's seed (substream seeds via fork_seed, so parallel chunks
//     stay deterministic and independent), and
//   * an optional cooperative cancellation token.
//
// What a run measures has a typed home of its own: a Partition's
// bisections, a simulation's SimMetrics, a service's ServiceStats.
//
// Granularity contract: contexts are checked at *run boundaries* (per
// partition call, per experiment trial), never inside the per-bisection hot
// loops -- registry and context dispatch must stay off the hot path (the
// BM_HfPartition guard in bench/micro_core.cpp pins this).  Cancellation is
// therefore cooperative with trial-level latency.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "stats/rng.hpp"

namespace lbb::core {

/// Thread-safe cooperative cancellation flag.  The owner keeps it alive for
/// the duration of every run that references it.
class CancelToken {
 public:
  // seq_cst accesses (cancellation is checked at run granularity, never in
  // a per-bisection loop): the lbb-lint memory-order rule bans weaker
  // orders.
  void cancel() noexcept { flag_.store(true); }
  [[nodiscard]] bool cancelled() const noexcept { return flag_.load(); }

 private:
  std::atomic<bool> flag_{false};
};

/// Thrown by RunContext::checkpoint() when the run was cancelled (and by
/// the experiment engines when their time limit passed).  Derives from
/// std::runtime_error so generic harness error handling reports it
/// cleanly.
class OperationCancelled : public std::runtime_error {
 public:
  explicit OperationCancelled(const std::string& what)
      : std::runtime_error(what) {}
};

/// The run spine.  Cheap to construct; movable.
class RunContext {
 public:
  explicit RunContext(std::uint64_t seed) : seed_(seed) {}

  /// Seed this context was created with.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Deterministic substream seed for `salt` (path-hashed, stateless).
  [[nodiscard]] std::uint64_t fork_seed(std::uint64_t salt) const noexcept {
    return lbb::stats::mix64(seed_, salt);
  }

  /// Attaches a cancellation token (not owned; may be nullptr to detach).
  void set_cancel_token(const CancelToken* token) noexcept {
    cancel_ = token;
  }

  /// Cooperative checkpoint: throws OperationCancelled when the token
  /// fired.  Call between trials / partition runs, never per bisection.
  void checkpoint() const {
    if (cancel_ != nullptr && cancel_->cancelled()) {
      throw OperationCancelled("run cancelled");
    }
  }

 private:
  std::uint64_t seed_ = 0;
  const CancelToken* cancel_ = nullptr;
};

}  // namespace lbb::core

// Partitioner: named, registered load-balancing strategies behind one
// driver-facing interface (the shape METIS-style systems use for their
// bisection policies).
//
// Every algorithm family is a string key in the PartitionerRegistry:
//
//   "hf"                 Algorithm HF (sequential heaviest-first)
//   "ba"                 Algorithm BA
//   "ba_star"            Algorithm BA' ("BA*" in the tables)
//   "ba_hf"              Algorithm BA-HF
//   "oblivious:bfs|dfs|random"   weight-oblivious baselines
//   "phf:oracle|ba_prime|probe"  PHF on the simulated machine
//                                (registered by sim::register_sim_partitioners)
//   "sim:ba|ba_star|ba_hf"       BA-family simulated executions (ditto)
//   "par:ba|ba_star|ba_hf"       BA-family on a real thread pool
//                                (runtime::register_par_partitioners)
//
// A Partitioner runs through the type-erased interface
// run(RunContext&, AnyProblem, n) -> Partition<AnyProblem>; the hot
// Monte-Carlo paths bypass the erasure through the *typed escape hatch*
// try_typed_partition<P>(), which monomorphizes the builtin algorithm
// families exactly as the previous hardcoded dispatch did (one indirect
// call per run, zero per bisection -- the per-bisection codegen of
// hf_partition & co. is untouched).  Custom registered partitioners simply
// fall back to the AnyProblem path.
//
// Registering a new algorithm costs one factory (see docs/ALGORITHMS.md,
// "Registering a new algorithm"); it is then reachable from every
// experiment and from `lbb_bench --algos=...` with no new binary.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "core/hf.hpp"
#include "core/oblivious.hpp"
#include "core/partition.hpp"
#include "core/problem.hpp"
#include "core/run_context.hpp"
#include "core/sync.hpp"
#include "core/workspace.hpp"

namespace lbb::core {

/// Identity of a registered partitioner.
struct PartitionerInfo {
  std::string name;         ///< registry key, e.g. "ba_hf", "phf:oracle"
  std::string display;      ///< table/CSV label, e.g. "BA-HF", "PHF(oracle)"
  std::string description;  ///< one-line help text
};

/// Creation-time knobs.  A factory reads what it needs and ignores the
/// rest (BA needs nothing; BA'/BA-HF/PHF need alpha; BA-HF needs beta;
/// oblivious:random needs seed).
struct PartitionerConfig {
  double alpha = 0.25;      ///< bisector quality of the problem class
  double beta = 1.0;        ///< BA-HF threshold parameter
  std::uint64_t seed = 0;   ///< randomized strategies (0: derive from ctx)
  PartitionOptions options; ///< e.g. record_tree for conformance checks
  /// Worker threads for the par:* families (0 = hardware_concurrency);
  /// ignored by sequential and simulated strategies.  Output is identical
  /// for every value -- this only changes the execution schedule.
  std::int32_t threads = 0;
};

/// Builtin algorithm kinds the typed escape hatch can monomorphize.
enum class BuiltinKind {
  kCustom,  ///< no typed entry; use the AnyProblem interface
  kHf,
  kBa,
  kBaStar,
  kBaHf,
  kOblivious,
};

/// Worst-case performance-ratio bound of a builtin family on a class with
/// alpha-bisectors (core/bounds.hpp), or 0.0 for kinds with no known
/// bound.  The par:*, sim:* and phf:* partitioners produce a builtin
/// family's partition and report its bound through this too.
[[nodiscard]] double builtin_ratio_bound(BuiltinKind kind, double alpha,
                                         double beta, std::int32_t n);

/// Typed-dispatch descriptor returned by Partitioner::builtin().
struct BuiltinAlgo {
  BuiltinKind kind = BuiltinKind::kCustom;
  double alpha = 0.25;
  double beta = 1.0;
  ObliviousStrategy strategy = ObliviousStrategy::kBreadthFirst;
  std::uint64_t seed = 0;
  PartitionOptions options;
};

/// A named load-balancing strategy.  Implementations are stateless after
/// construction and safe to call concurrently from multiple threads.
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  [[nodiscard]] virtual const PartitionerInfo& info() const = 0;

  /// Partitions `problem` into (at most) `n` pieces, honoring
  /// ctx.checkpoint() at run granularity.
  [[nodiscard]] virtual Partition<AnyProblem> run(RunContext& ctx,
                                                  AnyProblem problem,
                                                  std::int32_t n) const = 0;

  /// Worst-case performance-ratio bound for this strategy on a class with
  /// alpha-bisectors, or 0.0 when no bound is known.
  [[nodiscard]] virtual double ratio_bound(std::int32_t n) const {
    (void)n;
    return 0.0;
  }

  /// Typed escape hatch: descriptor for monomorphized dispatch.  Builtin
  /// families return their kind + parameters; custom strategies keep the
  /// default (kCustom) and are reached via run() only.
  [[nodiscard]] virtual BuiltinAlgo builtin() const { return {}; }
};

/// Error raised for unknown registry keys; carries the known names so
/// front ends can print the available set.
class UnknownPartitionerError : public std::invalid_argument {
 public:
  UnknownPartitionerError(std::string_view name,
                          std::vector<std::string> known);
  [[nodiscard]] const std::vector<std::string>& known() const noexcept {
    return known_;
  }

 private:
  std::vector<std::string> known_;
};

/// String-keyed partitioner registry (process-wide singleton).  The core
/// families self-register; other layers add theirs through an idempotent
/// registration hook (sim::register_sim_partitioners()).
///
/// Thread-safe: registration hooks run from whichever thread first touches
/// a layer (including pool workers resolving algorithms mid-experiment),
/// so the entry table is guarded by a mutex.  Factories are invoked
/// OUTSIDE the lock -- a factory may itself consult the registry.
class PartitionerRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Partitioner>(const PartitionerConfig&)>;

  static PartitionerRegistry& instance();

  /// Registers `factory` under `info.name`.  Re-registering an existing
  /// name replaces the entry (last registration wins), so tests can stub.
  void add(PartitionerInfo info, Factory factory) LBB_EXCLUDES(mu_);

  [[nodiscard]] bool contains(std::string_view name) const LBB_EXCLUDES(mu_);

  /// Instantiates the named partitioner; throws UnknownPartitionerError
  /// (listing the registered names) for unknown keys.
  [[nodiscard]] std::unique_ptr<Partitioner> create(
      std::string_view name, const PartitionerConfig& config = {}) const
      LBB_EXCLUDES(mu_);

  /// Registered identities, sorted by name.
  [[nodiscard]] std::vector<PartitionerInfo> list() const LBB_EXCLUDES(mu_);

  /// Sorted registered names (for error messages / --help).
  [[nodiscard]] std::vector<std::string> names() const LBB_EXCLUDES(mu_);

 private:
  PartitionerRegistry();

  struct Entry {
    PartitionerInfo info;
    Factory factory;
  };

  [[nodiscard]] std::vector<std::string> names_locked() const
      LBB_REQUIRES(mu_);

  mutable Mutex mu_;
  std::vector<Entry> entries_ LBB_GUARDED_BY(mu_);
};

/// Typed escape hatch: runs `part` on a concrete problem type without type
/// erasure when the partitioner is a builtin family (monomorphizing
/// hf_partition & co. exactly like direct calls); returns std::nullopt for
/// custom partitioners, whose only entry point is the erased run().
/// Checkpoints the context as run() does.
///
/// This overload draws all scratch and output storage from `ws`: with a
/// warm workspace the hf/ba/ba_star/ba_hf cases allocate nothing (the
/// oblivious baselines are off the measured hot path and keep their own
/// storage).  The caller recycles the returned partition back into `ws`
/// once its statistics are extracted.
template <Bisectable P>
[[nodiscard]] std::optional<Partition<P>> try_typed_partition(
    const Partitioner& part, RunContext& ctx, TrialWorkspace<P>& ws,
    P problem, std::int32_t n) {
  const BuiltinAlgo b = part.builtin();
  ctx.checkpoint();
  std::optional<Partition<P>> out;
  switch (b.kind) {
    case BuiltinKind::kCustom:
      return std::nullopt;
    case BuiltinKind::kHf:
      out = hf_partition(ws, std::move(problem), n, b.options);
      break;
    case BuiltinKind::kBa:
      out = ba_partition(ws, std::move(problem), n, b.options);
      break;
    case BuiltinKind::kBaStar:
      out = ba_star_partition(ws, std::move(problem), n, b.alpha, b.options);
      break;
    case BuiltinKind::kBaHf:
      out = ba_hf_partition(ws, std::move(problem), n,
                            BaHfParams{b.alpha, b.beta}, b.options);
      break;
    case BuiltinKind::kOblivious: {
      const std::uint64_t seed =
          b.seed != 0 ? b.seed : ctx.fork_seed(0x0b11u);
      out = oblivious_partition(std::move(problem), n, b.strategy, seed,
                                b.options);
      break;
    }
  }
  return out;
}

/// Workspace-free form (cold workspace per call; identical output).
template <Bisectable P>
[[nodiscard]] std::optional<Partition<P>> try_typed_partition(
    const Partitioner& part, RunContext& ctx, P problem, std::int32_t n) {
  TrialWorkspace<P> ws;
  return try_typed_partition(part, ctx, ws, std::move(problem), n);
}

}  // namespace lbb::core

// Conformance suite for the partitioner registry (ISSUE 4, satellite 3).
//
// Part 1 exercises the PartitionerRegistry contract itself (lookup,
// error reporting, last-registration-wins, typed-vs-erased agreement).
//
// Part 2 runs *every registered partitioner* against *every problem type
// in src/problems* and asserts the Bisectable conformance properties:
//   - Partition::validate(): <= n pieces on distinct processors, positive
//     weights, piece weights summing to the input weight (conservation);
//   - the recorded BisectionTree validates structurally, and for classes
//     with a known alpha every bisection stays inside the alpha-bisector
//     band of Definition 1 (child weight in [alpha*w, (1-alpha)*w]);
//   - recorded bisections match the partition's bisection counter.
//
// Finite substrates (pivot lists, quadrature boxes, backtrack trees) can
// only be decomposed down to their atoms, and the weight-oblivious
// strategies may drill a single branch n-1 levels deep, so each problem
// spec declares processor counts safely within its decomposition capacity
// (always including non-powers-of-two).
#include "core/partitioner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "core/bounds.hpp"
#include "core/hf.hpp"
#include "core/run_context.hpp"
#include "experiments/batch_trials.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/backtrack.hpp"
#include "problems/fe_tree.hpp"
#include "problems/grid_domain.hpp"
#include "problems/noisy_weight.hpp"
#include "problems/pivot_list.hpp"
#include "problems/quadrature.hpp"
#include "problems/synthetic.hpp"
#include "runtime/par_partitioners.hpp"
#include "sim/partitioners.hpp"
#include "stats/rng.hpp"

namespace lbb::core {
namespace {

using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

// ---------------------------------------------------------------------------
// Part 1: registry contract.

TEST(PartitionerRegistry, ContainsEveryBuiltinFamily) {
  lbb::sim::register_sim_partitioners();
  lbb::runtime::register_par_partitioners();
  auto& reg = PartitionerRegistry::instance();
  for (const char* name :
       {"hf", "ba", "ba_star", "ba_hf", "oblivious:bfs", "oblivious:dfs",
        "oblivious:random", "phf:oracle", "phf:ba_prime", "phf:probe",
        "sim:ba", "sim:ba_star", "sim:ba_hf", "par:ba", "par:ba_star",
        "par:ba_hf"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  EXPECT_FALSE(reg.contains("no_such_partitioner"));
}

TEST(PartitionerRegistry, ListIsSortedByNameWithDisplayLabels) {
  const auto infos = PartitionerRegistry::instance().list();
  ASSERT_GE(infos.size(), 7u);
  EXPECT_TRUE(std::is_sorted(
      infos.begin(), infos.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
  for (const auto& info : infos) {
    EXPECT_FALSE(info.display.empty()) << info.name;
    EXPECT_FALSE(info.description.empty()) << info.name;
  }
}

TEST(PartitionerRegistry, UnknownNameThrowsAndCarriesKnownSet) {
  try {
    (void)PartitionerRegistry::instance().create("nope");
    FAIL() << "expected UnknownPartitionerError";
  } catch (const UnknownPartitionerError& e) {
    EXPECT_NE(std::string(e.what()).find("nope"), std::string::npos);
    const auto& known = e.known();
    EXPECT_NE(std::find(known.begin(), known.end(), "hf"), known.end());
    EXPECT_TRUE(std::is_sorted(known.begin(), known.end()));
  }
}

TEST(PartitionerRegistry, LastRegistrationWins) {
  auto& reg = PartitionerRegistry::instance();
  // A fully functional stub (delegates to HF) so the conformance sweep
  // below can run it like any other entry.
  const auto hf_factory = [](const PartitionerConfig& config) {
    return PartitionerRegistry::instance().create("hf", config);
  };
  reg.add({"test:stub", "Stub-v1", "first registration"}, hf_factory);
  reg.add({"test:stub", "Stub-v2", "second registration wins"}, hf_factory);
  ASSERT_TRUE(reg.contains("test:stub"));
  const auto infos = reg.list();
  const auto it = std::find_if(
      infos.begin(), infos.end(),
      [](const auto& info) { return info.name == "test:stub"; });
  ASSERT_NE(it, infos.end());
  EXPECT_EQ(it->display, "Stub-v2");
  EXPECT_EQ(std::count_if(
                infos.begin(), infos.end(),
                [](const auto& info) { return info.name == "test:stub"; }),
            1);
}

TEST(PartitionerRegistry, BuiltinDescriptorsExposeTypedDispatch) {
  auto& reg = PartitionerRegistry::instance();
  PartitionerConfig config;
  config.alpha = 0.2;
  EXPECT_EQ(reg.create("hf", config)->builtin().kind, BuiltinKind::kHf);
  EXPECT_EQ(reg.create("ba", config)->builtin().kind, BuiltinKind::kBa);
  EXPECT_EQ(reg.create("ba_star", config)->builtin().kind,
            BuiltinKind::kBaStar);
  EXPECT_EQ(reg.create("ba_hf", config)->builtin().kind, BuiltinKind::kBaHf);
  EXPECT_EQ(reg.create("oblivious:dfs", config)->builtin().kind,
            BuiltinKind::kOblivious);
  // Sim-backed strategies have no typed entry: the escape hatch declines
  // and callers must use the erased interface.
  lbb::sim::register_sim_partitioners();
  const auto phf = PartitionerRegistry::instance().create("phf:oracle");
  EXPECT_EQ(phf->builtin().kind, BuiltinKind::kCustom);
  RunContext ctx(7);
  auto typed = try_typed_partition(
      *phf, ctx, SyntheticProblem(7, AlphaDistribution::uniform(0.2, 0.5)),
      8);
  EXPECT_FALSE(typed.has_value());
}

TEST(PartitionerRegistry, TypedEscapeHatchMatchesErasedRun) {
  auto& reg = PartitionerRegistry::instance();
  const auto dist = AlphaDistribution::uniform(0.2, 0.5);
  PartitionerConfig config;
  config.alpha = 0.2;
  config.seed = 0x5eedULL;  // pins oblivious:random's stream
  for (const char* name : {"hf", "ba", "ba_star", "ba_hf", "oblivious:bfs",
                           "oblivious:dfs", "oblivious:random"}) {
    const auto part = reg.create(name, config);
    RunContext typed_ctx(11);
    RunContext erased_ctx(11);
    const auto typed = try_typed_partition(*part, typed_ctx,
                                           SyntheticProblem(11, dist), 13);
    ASSERT_TRUE(typed.has_value()) << name;
    const auto erased =
        part->run(erased_ctx, AnyProblem(SyntheticProblem(11, dist)), 13);
    EXPECT_EQ(typed->bisections, erased.bisections) << name;
    EXPECT_EQ(typed->sorted_weights(), erased.sorted_weights()) << name;
  }
}

TEST(PartitionerRegistry, CheckpointHonoursCancelledContext) {
  const auto part = PartitionerRegistry::instance().create("hf");
  CancelToken token;
  token.cancel();
  RunContext ctx(1);
  ctx.set_cancel_token(&token);
  EXPECT_THROW((void)part->run(
                   ctx,
                   AnyProblem(SyntheticProblem(
                       1, AlphaDistribution::uniform(0.2, 0.5))),
                   4),
               OperationCancelled);
}

// ---------------------------------------------------------------------------
// Part 2: every problem type x every registered partitioner.

struct ProblemSpec {
  std::string name;
  std::function<AnyProblem()> make;
  std::vector<std::int32_t> n_values;  ///< includes non-powers-of-two
  double band_alpha;  ///< alpha-bisector band; 0 = conservation only
  double tol;         ///< weight-conservation tolerance
};

lbb::problems::QuadratureProblem peaked_quadrature() {
  lbb::problems::Integrand f = [](std::span<const double> x) {
    const double d = x[0] - 0.3;
    return 1.0 / (d * d + 1e-3);
  };
  const double lo = 0.0;
  const double hi = 1.0;
  return {std::move(f), lbb::problems::QuadratureConfig{1e-5, 40}, 1,
          std::span<const double>(&lo, 1), std::span<const double>(&hi, 1)};
}

std::vector<ProblemSpec> problem_specs() {
  const auto dist = AlphaDistribution::uniform(0.2, 0.5);
  std::vector<ProblemSpec> specs;
  // The stochastic model bisects forever, so it can take any n; alpha-hat
  // is drawn from U[0.2, 0.5], making the 0.2-band exact at every node.
  specs.push_back({"synthetic",
                   [dist] { return AnyProblem(SyntheticProblem(21, dist)); },
                   {2, 5, 13, 32},
                   0.2,
                   1e-9});
  // Noisy weights deliberately break *observed* conservation by up to
  // ~3 epsilon relative per node; band checks are off, tolerance is wide.
  specs.push_back(
      {"noisy_synthetic",
       [dist] {
         return AnyProblem(lbb::problems::NoisyWeightProblem<SyntheticProblem>(
             SyntheticProblem(22, dist), 0.05, 99));
       },
       {2, 5, 13},
       0.0,
       0.25});
  specs.push_back({"fe_tree",
                   [] {
                     const auto tree =
                         lbb::problems::FeTree::adaptive_refinement(5, 600,
                                                                    2.0);
                     return AnyProblem(lbb::problems::FeTreeProblem(tree));
                   },
                   {3, 5, 9},
                   0.0,
                   1e-9});
  specs.push_back({"grid",
                   [] {
                     const auto field =
                         std::make_shared<const lbb::problems::GridField>(
                             lbb::problems::GridField::random_hotspots(
                                 3, 128, 64));
                     return AnyProblem(lbb::problems::GridProblem(field));
                   },
                   {3, 5, 9},
                   0.0,
                   1e-9});
  specs.push_back({"pivot_list",
                   [] {
                     return AnyProblem(
                         lbb::problems::PivotListProblem(17, 1 << 14));
                   },
                   {3, 5},
                   0.0,
                   1e-9});
  specs.push_back({"backtrack",
                   [] { return AnyProblem(lbb::problems::BacktrackProblem(8)); },
                   {3, 5},
                   0.0,
                   1e-9});
  specs.push_back({"quadrature",
                   [] { return AnyProblem(peaked_quadrature()); },
                   {3, 5},
                   0.0,
                   1e-9});
  return specs;
}

TEST(PartitionerConformance, EveryProblemTypeTimesEveryPartitioner) {
  lbb::sim::register_sim_partitioners();
  lbb::runtime::register_par_partitioners();
  auto& reg = PartitionerRegistry::instance();
  const auto specs = problem_specs();
  ASSERT_GE(reg.list().size(), 16u);
  for (const auto& spec : specs) {
    for (const auto& info : reg.list()) {
      PartitionerConfig config;
      config.alpha = 0.2;
      config.seed = 0x51ab5eedULL;  // fixed: oblivious:random / phf:probe
      config.options.record_tree = true;
      config.threads = 2;  // par:* families run genuinely multithreaded
      const auto part = reg.create(info.name, config);
      for (const std::int32_t n : spec.n_values) {
        SCOPED_TRACE(spec.name + " x " + info.name +
                     " n=" + std::to_string(n));
        RunContext ctx(0xc0ffeeULL + static_cast<std::uint64_t>(n));
        const auto result = part->run(ctx, spec.make(), n);
        EXPECT_EQ(result.processors, n);
        ASSERT_FALSE(result.pieces.empty());
        EXPECT_LE(result.pieces.size(), static_cast<std::size_t>(n));
        EXPECT_TRUE(result.validate(spec.tol));
        EXPECT_GE(result.ratio(), 1.0 - spec.tol);
        // The recorded tree must exist, validate structurally (weight
        // conservation at every bisection, leaves summing to the root),
        // and stay inside the alpha-band when the class guarantees one.
        ASSERT_FALSE(result.tree.empty());
        EXPECT_TRUE(result.tree.validate(spec.band_alpha, spec.tol));
        EXPECT_EQ(result.tree.bisection_count(),
                  static_cast<std::size_t>(result.bisections));
        EXPECT_EQ(result.tree.leaf_count(), result.pieces.size());
      }
    }
  }
}

// The kernels are generic over their output sink for any Bisectable; the
// experiment engines run only SyntheticProblem under the max sink.  For
// every problem class here, HF, BA, BA' and BA-HF under the max sink must
// report the full partition's heaviest piece and bisection count bit for
// bit.  These problems reach the kernels as AnyProblem, which does not opt
// into HF's tree walk, so HF runs its selection loop under both sinks.
TEST(PartitionerConformance, MaxSinkMatchesFullPartitionOnEveryProblemType) {
  static_assert(!detail::kHfWalks<detail::MaxSink, AnyProblem>);
  PartitionerConfig config;
  config.alpha = 0.2;
  const std::int32_t switch_threshold =
      ba_hf_switch_threshold(config.alpha, config.beta);
  for (const auto& spec : problem_specs()) {
    for (const std::int32_t n : spec.n_values) {
      for (const std::string algo : {"hf", "ba", "ba_star", "ba_hf"}) {
        SCOPED_TRACE(spec.name + " x " + algo + " n=" + std::to_string(n));
        RunContext ctx(1);
        const auto want = PartitionerRegistry::instance()
                              .create(algo, config)
                              ->run(ctx, spec.make(), n);
        TrialWorkspace<AnyProblem> ws;
        detail::MaxSink sink;
        AnyProblem p = spec.make();
        if (algo == "hf") {
          detail::hf_run(sink, ws, std::move(p), n, {});
        } else if (algo == "ba_hf") {
          detail::ba_hf_run(sink, ws, std::move(p), n, {}, switch_threshold);
        } else {
          const double prune =
              algo == "ba" ? -1.0
                           : phf_phase1_threshold(config.alpha, p.weight(), n);
          detail::ba_run(sink, ws, std::move(p), n, {}, prune);
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(sink.max),
                  std::bit_cast<std::uint64_t>(want.max_weight()));
        EXPECT_EQ(sink.bisections, want.bisections);
      }
    }
  }
}

using NamePairs = std::span<const std::pair<const char*, const char*>>;

/// Each pair's partitioner must report the same ratio_bound(n), bit for
/// bit, as the sequential family it names, over a grid of alpha, beta and
/// n.
void expect_same_ratio_bounds(NamePairs pairs) {
  auto& reg = PartitionerRegistry::instance();
  for (const auto& [name, family] : pairs) {
    for (const double alpha : {0.01, 0.2}) {
      for (const double beta : {0.5, 1.0, 3.0}) {
        PartitionerConfig config;
        config.alpha = alpha;
        config.beta = beta;
        const auto part = reg.create(name, config);
        const auto seq = reg.create(family, config);
        for (const std::int32_t n : {1, 7, 1024}) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(part->ratio_bound(n)),
                    std::bit_cast<std::uint64_t>(seq->ratio_bound(n)))
              << name << " vs " << family << " alpha=" << alpha
              << " beta=" << beta << " n=" << n;
        }
      }
    }
  }
}

// The tentpole acceptance check: for every registered problem type, the
// par:* partitioners produce BYTE-identical output (pieces in order, with
// exact weights, processors, depths, node links, and the full recorded
// BisectionTree) to their sequential counterparts, at every thread count.
TEST(PartitionerConformance, ParPartitionersMatchSequentialCounterparts) {
  lbb::runtime::register_par_partitioners();
  auto& reg = PartitionerRegistry::instance();
  const std::pair<const char*, const char*> pairs[] = {
      {"par:ba", "ba"}, {"par:ba_star", "ba_star"}, {"par:ba_hf", "ba_hf"}};
  expect_same_ratio_bounds(pairs);
  const auto specs = problem_specs();
  for (const auto& spec : specs) {
    for (const auto& [par_name, seq_name] : pairs) {
      for (const std::int32_t threads : {1, 2, 4, 8}) {
        PartitionerConfig config;
        config.alpha = 0.2;
        config.options.record_tree = true;
        config.threads = threads;
        const auto par_part = reg.create(par_name, config);
        const auto seq_part = reg.create(seq_name, config);
        for (const std::int32_t n : spec.n_values) {
          SCOPED_TRACE(spec.name + ": " + par_name + " vs " + seq_name +
                       " threads=" + std::to_string(threads) +
                       " n=" + std::to_string(n));
          RunContext par_ctx(17);
          RunContext seq_ctx(17);
          const auto par = par_part->run(par_ctx, spec.make(), n);
          const auto seq = seq_part->run(seq_ctx, spec.make(), n);
          EXPECT_EQ(par.total_weight, seq.total_weight);
          EXPECT_EQ(par.bisections, seq.bisections);
          EXPECT_EQ(par.max_depth, seq.max_depth);
          ASSERT_EQ(par.pieces.size(), seq.pieces.size());
          for (std::size_t i = 0; i < seq.pieces.size(); ++i) {
            EXPECT_EQ(par.pieces[i].weight, seq.pieces[i].weight) << i;
            EXPECT_EQ(par.pieces[i].processor, seq.pieces[i].processor) << i;
            EXPECT_EQ(par.pieces[i].depth, seq.pieces[i].depth) << i;
            EXPECT_EQ(par.pieces[i].node, seq.pieces[i].node) << i;
          }
          ASSERT_EQ(par.tree.size(), seq.tree.size());
          for (std::size_t id = 0; id < seq.tree.size(); ++id) {
            const auto& a = par.tree.node(static_cast<NodeId>(id));
            const auto& b = seq.tree.node(static_cast<NodeId>(id));
            EXPECT_EQ(a.weight, b.weight) << id;
            EXPECT_EQ(a.parent, b.parent) << id;
            EXPECT_EQ(a.left, b.left) << id;
            EXPECT_EQ(a.right, b.right) << id;
            EXPECT_EQ(a.depth, b.depth) << id;
          }
        }
      }
    }
  }
}

// sim:* run the sequential BA family on the simulated machine and phf:*
// produce HF's partition, so each reports that family's bound.
TEST(PartitionerConformance, SimPartitionersShareSequentialRatioBounds) {
  lbb::sim::register_sim_partitioners();
  const std::pair<const char*, const char*> pairs[] = {
      {"sim:ba", "ba"},       {"sim:ba_star", "ba_star"},
      {"sim:ba_hf", "ba_hf"}, {"phf:oracle", "hf"},
      {"phf:ba_prime", "hf"}, {"phf:probe", "hf"}};
  expect_same_ratio_bounds(pairs);
}

// Regression: with beta/alpha below about 1e-12 the BA-HF switch threshold
// used to round down to 1, so ba_hf_partition, par:ba_hf and the batch
// runner split one-processor frames and threw "ba_split_processors: n < 2"
// (only sim:ba_hf, which clamped it, ran).  All four must run and agree.
TEST(PartitionerConformance, BaHfWithTinyBetaOverAlphaRunsEverywhere) {
  lbb::runtime::register_par_partitioners();
  lbb::sim::register_sim_partitioners();
  const BaHfParams params{0.5, 1e-13};
  constexpr std::int32_t kN = 8;
  constexpr std::uint64_t kBaseSeed = 29;
  EXPECT_EQ(ba_hf_switch_threshold(params.alpha, params.beta), 2);
  const auto dist = AlphaDistribution::uniform(0.1, 0.5);
  // Trial 0 of the batch runner's instance family.
  const SyntheticProblem problem(lbb::stats::mix64(kBaseSeed, 0), dist);
  const auto want = ba_hf_partition(problem, kN, params);
  EXPECT_EQ(want.pieces.size(), static_cast<std::size_t>(kN));

  PartitionerConfig config;
  config.alpha = params.alpha;
  config.beta = params.beta;
  config.threads = 2;
  for (const char* name : {"par:ba_hf", "sim:ba_hf"}) {
    RunContext ctx(1);
    const auto got = PartitionerRegistry::instance()
                         .create(name, config)
                         ->run(ctx, AnyProblem(problem), kN);
    EXPECT_EQ(got.sorted_weights(), want.sorted_weights()) << name;
    EXPECT_EQ(got.bisections, want.bisections) << name;
  }

  BuiltinAlgo algo;
  algo.kind = BuiltinKind::kBaHf;
  algo.alpha = params.alpha;
  algo.beta = params.beta;
  experiments::BatchTrialOutcome outcome;
  experiments::BatchTrialRunner runner;
  runner.run(algo, dist, kBaseSeed, 0, 1, kN, 1, &outcome);
  EXPECT_EQ(outcome.ratio, want.ratio());
  EXPECT_EQ(outcome.bisections, want.bisections);
}

TEST(PartitionerConformance, RatioNeverBeatsBoundOnSyntheticClass) {
  auto& reg = PartitionerRegistry::instance();
  const auto dist = AlphaDistribution::uniform(0.2, 0.5);
  PartitionerConfig config;
  config.alpha = 0.2;
  for (const char* name : {"hf", "ba", "ba_star", "ba_hf"}) {
    const auto part = reg.create(name, config);
    for (const std::int32_t n : {5, 16, 37}) {
      const double bound = part->ratio_bound(n);
      ASSERT_GT(bound, 1.0) << name;
      for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        RunContext ctx(seed);
        const auto result =
            part->run(ctx, AnyProblem(SyntheticProblem(seed, dist)), n);
        EXPECT_LE(result.ratio(), bound + 1e-9)
            << name << " n=" << n << " seed=" << seed;
      }
    }
  }
}

}  // namespace
}  // namespace lbb::core

// Tests for the fault-injection layer (sim/fault_model.hpp).
//
// The headline property: any FaultConfig changes the simulated *time* and
// the fault metrics but never the partition -- a degraded run returns the
// byte-identical multiset of pieces, on the identical processors, as the
// ideal machine, for every free-processor manager and every BA-family
// simulator.
#include "sim/fault_model.hpp"

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "core/hf.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/checker.hpp"
#include "sim/par_ba.hpp"
#include "sim/phf.hpp"

namespace lbb::sim {
namespace {

using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

FaultConfig heavy_faults() {
  FaultConfig f;
  f.message_loss_rate = 0.3;
  f.message_delay_rate = 0.3;
  f.slow_proc_fraction = 0.5;
  f.unresponsive_rate = 0.4;
  f.seed = 7;
  return f;
}

template <typename P>
void expect_same_partition(const lbb::core::Partition<P>& a,
                           const lbb::core::Partition<P>& b) {
  ASSERT_EQ(a.pieces.size(), b.pieces.size());
  for (std::size_t i = 0; i < a.pieces.size(); ++i) {
    EXPECT_EQ(a.pieces[i].weight, b.pieces[i].weight) << "piece " << i;
    EXPECT_EQ(a.pieces[i].processor, b.pieces[i].processor) << "piece " << i;
    EXPECT_EQ(a.pieces[i].depth, b.pieces[i].depth) << "piece " << i;
  }
}

TEST(FaultModel, PartitionIdenticalUnderFaultsAllManagers) {
  SyntheticProblem p(11, AlphaDistribution::uniform(0.15, 0.5));
  const auto hf = lbb::core::hf_partition(p, 64);
  for (auto manager : {FreeProcManager::kOracle, FreeProcManager::kBaPrime,
                       FreeProcManager::kRandomProbe}) {
    PhfSimOptions ideal;
    ideal.manager = manager;
    ideal.check_invariants = true;
    PhfSimOptions degraded = ideal;
    degraded.faults = heavy_faults();

    auto clean = phf_simulate(p, 64, 0.15, {}, ideal);
    auto faulted = phf_simulate(p, 64, 0.15, {}, degraded);
    expect_same_partition(clean.partition, faulted.partition);
    // Both still realize sequential HF's partition.
    EXPECT_EQ(faulted.partition.sorted_weights(), hf.sorted_weights());
    // Faults only ever stretch the run.
    EXPECT_GE(faulted.metrics.makespan, clean.metrics.makespan);
    EXPECT_EQ(faulted.metrics.bisections, clean.metrics.bisections);
    EXPECT_EQ(faulted.metrics.messages, clean.metrics.messages);
  }
}

TEST(FaultModel, PartitionIdenticalUnderFaultsBaFamily) {
  SyntheticProblem p(12, AlphaDistribution::uniform(0.2, 0.5));
  const FaultConfig faults = heavy_faults();
  {
    auto clean = ba_simulate(p, 48);
    auto faulted = ba_simulate(p, 48, {}, {}, nullptr, faults);
    expect_same_partition(clean.partition, faulted.partition);
    EXPECT_GE(faulted.metrics.makespan, clean.metrics.makespan);
  }
  {
    auto clean = ba_star_simulate(p, 48, 0.2);
    auto faulted = ba_star_simulate(p, 48, 0.2, {}, {}, nullptr, faults);
    expect_same_partition(clean.partition, faulted.partition);
  }
  for (auto phase :
       {BaHfSecondPhase::kSequentialHf, BaHfSecondPhase::kPhf}) {
    auto clean = ba_hf_simulate(p, 48, 0.2, 1.0, {}, {}, nullptr, phase);
    auto faulted =
        ba_hf_simulate(p, 48, 0.2, 1.0, {}, {}, nullptr, phase, faults);
    expect_same_partition(clean.partition, faulted.partition);
  }
}

TEST(FaultModel, MetricsRecordInjectedFaults) {
  SyntheticProblem p(13, AlphaDistribution::uniform(0.15, 0.5));
  PhfSimOptions opt;
  opt.manager = FreeProcManager::kRandomProbe;
  opt.faults = heavy_faults();
  auto r = phf_simulate(p, 128, 0.15, {}, opt);
  EXPECT_GE(r.metrics.lost_messages, 1);
  EXPECT_GE(r.metrics.delayed_messages, 1);
  EXPECT_GE(r.metrics.retries, 1);
  EXPECT_GT(r.metrics.backoff_time, 0.0);
}

TEST(FaultModel, ZeroRatesAreExactlyTheIdealMachine) {
  SyntheticProblem p(14, AlphaDistribution::uniform(0.2, 0.5));
  PhfSimOptions ideal;
  PhfSimOptions zero;
  zero.faults.seed = 999;  // seed alone must not enable anything
  auto a = phf_simulate(p, 64, 0.2, {}, ideal);
  auto b = phf_simulate(p, 64, 0.2, {}, zero);
  EXPECT_TRUE(a.metrics == b.metrics);
  EXPECT_EQ(b.metrics.retries, 0);
  EXPECT_EQ(b.metrics.lost_messages, 0);
  EXPECT_EQ(b.metrics.backoff_time, 0.0);
}

TEST(FaultModel, DeterministicAcrossRepeats) {
  SyntheticProblem p(15, AlphaDistribution::uniform(0.15, 0.5));
  PhfSimOptions opt;
  opt.manager = FreeProcManager::kRandomProbe;
  opt.faults = heavy_faults();
  auto a = phf_simulate(p, 96, 0.15, {}, opt);
  auto b = phf_simulate(p, 96, 0.15, {}, opt);
  EXPECT_TRUE(a.metrics == b.metrics);
}

TEST(FaultModel, DeterministicAcrossThreadCounts) {
  // Running the same degraded trials on pools of different sizes must give
  // bit-identical metrics: FaultModel state is per-simulation, never
  // shared.
  const int kTrials = 12;
  auto run_all = [&](unsigned threads) {
    lbb::runtime::ThreadPool pool(threads);
    std::vector<std::future<SimMetrics>> futures;
    futures.reserve(kTrials);
    for (int t = 0; t < kTrials; ++t) {
      futures.push_back(pool.submit_task([t] {
        SyntheticProblem p(100 + t, AlphaDistribution::uniform(0.15, 0.5));
        PhfSimOptions opt;
        opt.manager = FreeProcManager::kRandomProbe;
        opt.faults = heavy_faults();
        opt.faults.seed = static_cast<std::uint64_t>(t + 1);
        auto r = phf_simulate(p, 64, 0.15, {}, opt);
        return r.metrics;
      }));
    }
    std::vector<SimMetrics> out;
    out.reserve(kTrials);
    for (auto& f : futures) out.push_back(f.get());
    return out;
  };
  const auto one = run_all(1);
  EXPECT_TRUE(one == run_all(2));
  EXPECT_TRUE(one == run_all(8));
}

TEST(FaultModel, RetryLoopsBoundedAtRateOne) {
  // Even certain loss / certain unresponsiveness terminates: every retry
  // loop is capped at max_retries.
  SyntheticProblem p(16, AlphaDistribution::uniform(0.2, 0.5));
  FaultConfig f;
  f.message_loss_rate = 1.0;
  f.unresponsive_rate = 1.0;
  f.max_retries = 3;
  PhfSimOptions opt;
  opt.manager = FreeProcManager::kRandomProbe;
  opt.faults = f;
  PhfSimOptions ideal = opt;
  ideal.faults = {};
  auto degraded = phf_simulate(p, 32, 0.2, {}, opt);
  auto clean = phf_simulate(p, 32, 0.2, {}, ideal);
  expect_same_partition(clean.partition, degraded.partition);
  // Every transfer loses exactly max_retries attempts before delivery.
  EXPECT_EQ(degraded.metrics.lost_messages,
            3 * degraded.metrics.messages);
}

TEST(FaultModel, TraceRecordsDropsAndRetriesAndStaysConsistent) {
  SyntheticProblem p(17, AlphaDistribution::uniform(0.15, 0.5));
  Trace trace;
  PhfSimOptions opt;
  opt.manager = FreeProcManager::kRandomProbe;
  opt.faults = heavy_faults();
  opt.trace = &trace;
  opt.check_invariants = true;  // the simulator itself enforces the checker
  auto r = phf_simulate(p, 64, 0.15, {}, opt);
  EXPECT_EQ(trace.count(TraceEvent::kDrop), r.metrics.lost_messages);
  EXPECT_GE(trace.count(TraceEvent::kRetry), 1);
  // One delivered attempt per message plus one send per lost attempt.
  EXPECT_EQ(trace.count(TraceEvent::kSend),
            r.metrics.messages + r.metrics.lost_messages);
  EXPECT_EQ(trace.count(TraceEvent::kReceive), r.metrics.messages);
  EXPECT_TRUE(MachineChecker::check_trace(trace).ok);
}

TEST(FaultModel, SlowdownIsStatelessAndBounded) {
  FaultConfig f;
  f.slow_proc_fraction = 0.5;
  f.max_slowdown = 3.0;
  FaultModel model(f);
  bool any_slow = false;
  for (std::int32_t p = 0; p < 64; ++p) {
    const double s = model.slowdown(p);
    EXPECT_GE(s, 1.0);
    EXPECT_LE(s, 3.0);
    EXPECT_EQ(s, model.slowdown(p));  // stateless: same answer every time
    if (s > 1.0) any_slow = true;
  }
  EXPECT_TRUE(any_slow);
}

TEST(FaultModel, DisabledModelConsumesNothing) {
  FaultModel model;
  EXPECT_FALSE(model.enabled());
  EXPECT_EQ(model.slowdown(3), 1.0);
  const TransferFaults t = model.on_transfer();
  EXPECT_EQ(t.losses, 0);
  EXPECT_EQ(t.extra_delay, 0.0);
  const ProbeFaults pr = model.on_probe();
  EXPECT_EQ(pr.retries, 0);
}

TEST(FaultModel, FaultedTransferReducesToIdealWhenDisabled) {
  FaultModel model;
  CostModel cost;
  SimMetrics m;
  const double arrival =
      faulted_transfer(model, cost, 8, m, nullptr, 0, 3, 5.0, 1.0);
  EXPECT_DOUBLE_EQ(arrival, 5.0 + cost.t_send);
  EXPECT_EQ(m.messages, 1);
  EXPECT_EQ(m.lost_messages, 0);
}

TEST(FaultModel, ValidationRejectsBadConfigs) {
  auto expect_bad = [](FaultConfig f) {
    EXPECT_THROW(FaultModel{f}, std::invalid_argument);
  };
  FaultConfig f;
  f.message_loss_rate = 1.5;
  expect_bad(f);
  f = {};
  f.unresponsive_rate = -0.1;
  expect_bad(f);
  f = {};
  f.max_slowdown = 0.5;
  expect_bad(f);
  f = {};
  f.max_retries = 0;
  expect_bad(f);
  f = {};
  f.initial_timeout = -1.0;
  expect_bad(f);
  // And the simulator validates on entry.
  SyntheticProblem p(18, AlphaDistribution::uniform(0.2, 0.5));
  PhfSimOptions opt;
  opt.faults.message_loss_rate = 2.0;
  EXPECT_THROW((void)phf_simulate(p, 8, 0.2, {}, opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace lbb::sim

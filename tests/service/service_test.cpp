// Tests for the resident PartitionService (src/service/): cache-hit /
// cache-miss byte identity across every registered partitioner family,
// single-flight batching, hits answered at admission, admission control,
// cancellation under load (queued and mid-batch, without cache poisoning),
// failed computes (never cached), shutdown draining, and stats/reporting.
// The `service` ctest label groups these; the determinism harness runs
// them when given a build directory.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/ba.hpp"
#include "core/partitioner.hpp"
#include "core/run_context.hpp"
#include "core/workspace.hpp"
#include "service/partition_service.hpp"
#include "sim/partitioners.hpp"

namespace lbb::service {
namespace {

RequestSpec spec_for(std::string_view algo, std::uint64_t problem_seed = 3,
                     std::int32_t n = 96) {
  RequestSpec spec;
  spec.algo = algo;
  spec.problem_seed = problem_seed;
  spec.n = n;
  spec.alpha_lo = 0.1;
  spec.alpha_hi = 0.5;
  spec.alpha = 0.25;
  spec.beta = 1.0;
  return spec;
}

ServiceConfig small_config(std::int32_t workers) {
  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 64;
  return cfg;
}

/// Spin-waits (with yields) until `pred` holds or ~5s pass.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 50000; ++i) {
    if (pred()) return true;
    std::this_thread::yield();
    if (i % 100 == 99) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return pred();
}

// ---------------------------------------------------------------------------
// A registry-registered partitioner that blocks inside run() until a gate
// opens, so tests can hold a batch in its computing phase deterministically.
// With `fail` set it throws once the gate opens, so a compute fails.

struct GateState {
  std::atomic<int> entered{0};
  std::atomic<bool> open{false};
  std::atomic<bool> fail{false};
};

class GatePartitioner final : public core::Partitioner {
 public:
  explicit GatePartitioner(std::shared_ptr<GateState> state)
      : state_(std::move(state)) {}

  [[nodiscard]] const core::PartitionerInfo& info() const override {
    static const core::PartitionerInfo kInfo{
        "svc_test:gate", "Gate(test)",
        "blocks until the test opens the gate, then runs BA"};
    return kInfo;
  }

  [[nodiscard]] core::Partition<core::AnyProblem> run(
      core::RunContext& ctx, core::AnyProblem problem,
      std::int32_t n) const override {
    ctx.checkpoint();
    state_->entered.fetch_add(1);
    while (!state_->open.load()) std::this_thread::yield();
    if (state_->fail.load()) {
      throw std::runtime_error("svc_test:gate: injected failure");
    }
    core::TrialWorkspace<core::AnyProblem> ws;
    return core::ba_partition(ws, std::move(problem), n, {});
  }

 private:
  std::shared_ptr<GateState> state_;
};

/// Registers (or re-registers: last registration wins) the gate entry and
/// returns the state handle controlling it.
std::shared_ptr<GateState> install_gate() {
  auto state = std::make_shared<GateState>();
  core::PartitionerRegistry::instance().add(
      {"svc_test:gate", "Gate(test)", "service-test gate partitioner"},
      [state](const core::PartitionerConfig&) {
        return std::make_unique<GatePartitioner>(state);
      });
  return state;
}

/// Opens the gate when it leaves scope.  Declare it right after the
/// service, and the requests (and their cancel tokens) before the service:
/// an ASSERT that returns before the test opens the gate then releases the
/// gated compute before the service's destructor waits for it, so the test
/// fails instead of hanging, and the requests outlive what the service
/// drains.
struct GateOpener {
  explicit GateOpener(std::shared_ptr<GateState> state)
      : gate(std::move(state)) {}
  ~GateOpener() { gate->open.store(true); }
  GateOpener(const GateOpener&) = delete;
  GateOpener& operator=(const GateOpener&) = delete;

  std::shared_ptr<GateState> gate;
};

// ---------------------------------------------------------------------------
// Basic serving

TEST(PartitionService, ServesAValidPartition) {
  PartitionService svc(small_config(1));
  const auto result = svc.call(spec_for("ba"));
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->pieces.size(), 96u);
  EXPECT_EQ(result->processors, 96);
  EXPECT_NEAR(result->total_weight, 1.0, 1e-9);
  EXPECT_GE(result->ratio, 1.0);
  EXPECT_GT(result->bisections, 0);
  double sum = 0.0;
  for (const PieceRecord& piece : result->pieces) sum += piece.weight;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PartitionService, RejectsMalformedSpecsBeforeQueueing) {
  PartitionService svc(small_config(1));
  PartitionRequest req;
  req.spec = spec_for("ba");
  req.spec.n = 0;
  EXPECT_THROW((void)svc.try_submit(req), std::invalid_argument);
  req.spec = spec_for("ba");
  req.spec.alpha_lo = 0.0;  // AlphaDistribution needs lo > 0
  EXPECT_THROW((void)svc.try_submit(req), std::invalid_argument);
  req.spec = spec_for("ba");
  req.spec.alpha_hi = 0.6;  // and hi <= 1/2
  EXPECT_THROW((void)svc.try_submit(req), std::invalid_argument);
  // A positive lo below half a key quantum (2^-21) would compute from a
  // canonical band [0, hi], which AlphaDistribution refuses: it must throw
  // here, not complete kError from its task.
  req.spec = spec_for("ba");
  req.spec.alpha_lo = 4e-7;
  bool accepted = false;
  EXPECT_THROW(accepted = svc.try_submit(req), std::invalid_argument);
  if (accepted) (void)req.wait();  // the block must not be re-armed pending
  // Partitioner parameters outside alpha in (0, 1/2] and beta > 0, on
  // their canonical values, would fail in every compute of their key.
  for (const auto& [algo, alpha, beta] :
       {std::tuple{"ba_star", 0.7, 1.0}, std::tuple{"ba_star", 1e-7, 1.0},
        std::tuple{"ba_hf", 0.25, 0.0}, std::tuple{"ba_hf", 0.25, 1e-7}}) {
    SCOPED_TRACE(testing::Message() << algo << " alpha " << alpha
                                    << " beta " << beta);
    req.spec = spec_for(algo);
    req.spec.alpha = alpha;
    req.spec.beta = beta;
    accepted = false;
    EXPECT_THROW(accepted = svc.try_submit(req), std::invalid_argument);
    if (accepted) (void)req.wait();
  }
  const ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.submitted, 0);
  // One quantum is the smallest band that is served.
  req.spec = spec_for("ba");
  req.spec.alpha_lo = 1e-6;
  svc.submit(req);
  EXPECT_EQ(req.wait(), ServiceStatus::kOk) << req.error_message();
}

TEST(PartitionService, UnknownAlgoCompletesWithTypedError) {
  PartitionService svc(small_config(1));
  PartitionRequest req;
  req.spec = spec_for("no_such_partitioner");
  svc.submit(req);
  EXPECT_EQ(req.wait(), ServiceStatus::kError);
  EXPECT_EQ(req.result(), nullptr);
  EXPECT_NE(req.error_message().find("no_such_partitioner"),
            std::string::npos);
  const ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.cache_entries, 0);  // failures are never cached
}

// A failed compute never reaches the cache: its key leaves the table, so
// admission cannot answer it.  A repeat computes again, a follower that
// joined the failing batch shares its error, and once the partitioner
// recovers the key is computed, not hit.
TEST(PartitionService, FailedComputeNeverReachesTheCache) {
  PartitionRequest first, again, leader, follower, later;
  auto gate = install_gate();
  gate->fail.store(true);
  gate->open.store(true);
  PartitionService svc(small_config(2));
  const GateOpener opener{gate};

  first.spec = again.spec = spec_for("svc_test:gate");
  svc.submit(first);
  ASSERT_EQ(first.wait(), ServiceStatus::kError);
  EXPECT_NE(first.error_message().find("injected failure"),
            std::string::npos);
  svc.submit(again);
  ASSERT_EQ(again.wait(), ServiceStatus::kError);
  EXPECT_FALSE(again.served_from_cache());
  ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.errors, 2);
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_entries, 0);
  EXPECT_EQ(gate->entered.load(), 2);

  gate->open.store(false);
  leader.spec = follower.spec = spec_for("svc_test:gate");
  svc.submit(leader);
  ASSERT_TRUE(eventually([&] { return gate->entered.load() == 3; }));
  svc.submit(follower);
  ASSERT_TRUE(eventually([&] { return svc.snapshot().coalesced == 1; }));
  gate->open.store(true);
  EXPECT_EQ(leader.wait(), ServiceStatus::kError);
  EXPECT_EQ(follower.wait(), ServiceStatus::kError);
  EXPECT_EQ(follower.result(), nullptr);
  EXPECT_EQ(follower.error_message(), leader.error_message());
  EXPECT_EQ(gate->entered.load(), 3);  // the follower did not compute
  stats = svc.snapshot();
  EXPECT_EQ(stats.errors, 4);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_entries, 0);

  gate->fail.store(false);
  later.spec = spec_for("svc_test:gate");
  svc.submit(later);
  ASSERT_EQ(later.wait(), ServiceStatus::kOk);
  EXPECT_FALSE(later.served_from_cache());
  EXPECT_EQ(gate->entered.load(), 4);
  stats = svc.snapshot();
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_entries, 1);
}

// ---------------------------------------------------------------------------
// Memoization: byte identity between hit, miss, and fresh compute

TEST(PartitionService, CacheHitIsByteIdenticalForEveryRegisteredFamily) {
  // Bring in every registration hook this repo has (core self-registers,
  // par:* comes with the service, sim:*/phf:* from the sim layer).
  sim::register_sim_partitioners();
  PartitionService svc(small_config(1));
  std::size_t families = 0;
  for (const core::PartitionerInfo& info :
       core::PartitionerRegistry::instance().list()) {
    if (info.name.rfind("svc_test:", 0) == 0) continue;  // test stubs
    ++families;
    PartitionRequest miss, hit, fresh;
    miss.spec = hit.spec = fresh.spec = spec_for(info.name, 11, 64);
    fresh.bypass_cache = true;

    svc.submit(miss);
    ASSERT_EQ(miss.wait(), ServiceStatus::kOk)
        << info.name << ": " << miss.error_message();
    EXPECT_FALSE(miss.served_from_cache()) << info.name;

    svc.submit(hit);
    ASSERT_EQ(hit.wait(), ServiceStatus::kOk) << info.name;
    EXPECT_TRUE(hit.served_from_cache()) << info.name;
    // A hit shares the cached object -- trivially identical bytes.
    EXPECT_EQ(hit.result().get(), miss.result().get()) << info.name;

    // The strong claim: a cache-BYPASSING recompute of the same key is
    // byte-identical to the cached answer (field-exact doubles), for every
    // family including the ctx-seeded randomized ones (the run seed is
    // derived from the key, not the caller).
    svc.submit(fresh);
    ASSERT_EQ(fresh.wait(), ServiceStatus::kOk) << info.name;
    EXPECT_FALSE(fresh.served_from_cache()) << info.name;
    ASSERT_NE(fresh.result(), nullptr) << info.name;
    EXPECT_TRUE(*fresh.result() == *miss.result())
        << info.name << ": recompute diverged from cached result";
  }
  // The registry must have provided the full shipped set (4 sequential + 3
  // oblivious + 3 par + the sim/phf families).
  EXPECT_GE(families, 13u);
  const ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.cache_entries, static_cast<std::int64_t>(families));
  EXPECT_EQ(stats.bypassed, static_cast<std::int64_t>(families));
}

TEST(PartitionService, AlphaBandQuantizationSharesEntries) {
  PartitionService svc(small_config(1));
  PartitionRequest a, b;
  a.spec = b.spec = spec_for("ba_star");
  // Nudge alpha by less than one key quantum: same band, so b must hit.
  b.spec.alpha = a.spec.alpha + 0.4 / core::PartitionCacheKey::kQuantum;
  svc.submit(a);
  ASSERT_EQ(a.wait(), ServiceStatus::kOk);
  svc.submit(b);
  ASSERT_EQ(b.wait(), ServiceStatus::kOk);
  EXPECT_TRUE(b.served_from_cache());
  EXPECT_EQ(b.result().get(), a.result().get());
  EXPECT_EQ(a.key(), b.key());
}

TEST(PartitionService, CacheDisabledAlwaysComputes) {
  ServiceConfig cfg = small_config(1);
  cfg.cache_capacity = 0;
  PartitionService svc(cfg);
  PartitionRequest a, b;
  a.spec = b.spec = spec_for("ba");
  svc.submit(a);
  ASSERT_EQ(a.wait(), ServiceStatus::kOk);
  svc.submit(b);
  ASSERT_EQ(b.wait(), ServiceStatus::kOk);
  EXPECT_FALSE(b.served_from_cache());
  EXPECT_NE(b.result().get(), a.result().get());
  EXPECT_TRUE(*b.result() == *a.result());  // still deterministic
  EXPECT_EQ(svc.snapshot().cache_entries, 0);
}

TEST(PartitionService, SecondChanceEvictsColdEntryAndKeepsHitOne) {
  ServiceConfig cfg = small_config(1);
  cfg.cache_capacity = 2;
  PartitionService svc(cfg);
  const auto a1 = svc.call(spec_for("ba", 1));  // fills slot 0
  const auto b1 = svc.call(spec_for("ba", 2));  // fills slot 1
  // A hit sets key 1's referenced bit, so the sweep must spare it.
  (void)svc.call(spec_for("ba", 1));
  // Cache full: the clock hand clears key 1's bit, passes it over, and
  // evicts the cold key 2 to make room for key 3.
  (void)svc.call(spec_for("ba", 3));
  ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.cache_entries, 2);
  EXPECT_EQ(stats.cache_evictions, 1);

  PartitionRequest one, three;
  one.spec = spec_for("ba", 1);
  three.spec = spec_for("ba", 3);
  svc.submit(one);
  ASSERT_EQ(one.wait(), ServiceStatus::kOk);
  EXPECT_TRUE(one.served_from_cache());
  EXPECT_EQ(one.result().get(), a1.get());
  svc.submit(three);
  ASSERT_EQ(three.wait(), ServiceStatus::kOk);
  EXPECT_TRUE(three.served_from_cache());

  // The evicted key recomputes byte-identically: eviction changes hit
  // counts, never served bytes.
  PartitionRequest two;
  two.spec = spec_for("ba", 2);
  svc.submit(two);
  ASSERT_EQ(two.wait(), ServiceStatus::kOk);
  EXPECT_FALSE(two.served_from_cache());
  EXPECT_NE(two.result().get(), b1.get());
  EXPECT_TRUE(*two.result() == *b1);
}

TEST(PartitionService, ClockSweepWrapsWhenEveryEntryIsReferenced) {
  ServiceConfig cfg = small_config(1);
  cfg.cache_capacity = 2;
  PartitionService svc(cfg);
  (void)svc.call(spec_for("ba", 1));
  (void)svc.call(spec_for("ba", 2));
  (void)svc.call(spec_for("ba", 1));  // reference both entries
  (void)svc.call(spec_for("ba", 2));
  // Full sweep: the hand strips both bits, wraps, and evicts slot 0.
  (void)svc.call(spec_for("ba", 3));
  ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.cache_entries, 2);
  EXPECT_EQ(stats.cache_evictions, 1);
  PartitionRequest two, three;
  two.spec = spec_for("ba", 2);
  three.spec = spec_for("ba", 3);
  svc.submit(two);
  ASSERT_EQ(two.wait(), ServiceStatus::kOk);
  EXPECT_TRUE(two.served_from_cache());  // slot 1 survived the wrap
  svc.submit(three);
  ASSERT_EQ(three.wait(), ServiceStatus::kOk);
  EXPECT_TRUE(three.served_from_cache());
}

// ---------------------------------------------------------------------------
// Batching (single-flight coalescing)

TEST(PartitionService, CoalescesSameKeyRequestsIntoOneCompute) {
  PartitionRequest leader, follower;
  auto gate = install_gate();
  PartitionService svc(small_config(2));
  const GateOpener opener{gate};

  leader.spec = spec_for("svc_test:gate");
  svc.submit(leader);
  ASSERT_TRUE(eventually([&] { return gate->entered.load() == 1; }));

  // Same key while the leader computes: admission must join it to the
  // leader's batch instead of computing again.
  follower.spec = spec_for("svc_test:gate");
  svc.submit(follower);
  ASSERT_TRUE(
      eventually([&] { return svc.snapshot().coalesced == 1; }));
  EXPECT_EQ(gate->entered.load(), 1);  // no second compute started

  gate->open.store(true);
  EXPECT_EQ(leader.wait(), ServiceStatus::kOk);
  EXPECT_EQ(follower.wait(), ServiceStatus::kOk);
  EXPECT_FALSE(leader.served_from_cache());
  EXPECT_TRUE(follower.served_from_cache());
  EXPECT_EQ(follower.result().get(), leader.result().get());
  EXPECT_EQ(gate->entered.load(), 1);  // one compute served both
}

// ---------------------------------------------------------------------------
// Hits answered at admission: a cached key completes inside try_submit, on
// the caller's thread, with no pool task.  These tests hold the single
// worker in the gate, so only an answer given at admission can complete
// before the gate opens.

/// A one-worker service with spec_for("ba") cached and its worker held in
/// the gate by `blocker`.  Declare requests before it: its destructor opens
/// the gate, and the service's stop() then drains whatever is still
/// queued, so requests must outlive it.
struct HeldWorker {
  explicit HeldWorker(ServiceConfig cfg) : svc(cfg) {
    cached = svc.call(spec_for("ba"));
    blocker.spec = spec_for("svc_test:gate");
    svc.submit(blocker);
  }
  ~HeldWorker() {
    gate->open.store(true);
    (void)blocker.wait();
  }
  HeldWorker(const HeldWorker&) = delete;
  HeldWorker& operator=(const HeldWorker&) = delete;

  /// The blocker's compute has entered the gate.
  [[nodiscard]] bool held() const {
    return eventually([&] { return gate->entered.load() == 1; });
  }

  std::shared_ptr<GateState> gate = install_gate();
  PartitionRequest blocker;
  PartitionService svc;
  std::shared_ptr<const PartitionResult> cached;
};

TEST(PartitionService, CachedKeyIsAnsweredAtAdmission) {
  PartitionRequest req;
  HeldWorker held(small_config(1));
  ASSERT_TRUE(held.held());
  req.spec = spec_for("ba");
  ASSERT_TRUE(held.svc.try_submit(req));
  // Terminal before try_submit returned, although the only worker is held.
  ASSERT_EQ(req.status(), ServiceStatus::kOk);
  EXPECT_TRUE(req.served_from_cache());
  EXPECT_EQ(req.result().get(), held.cached.get());
  EXPECT_EQ(req.wait(), ServiceStatus::kOk);
  const ServiceStats stats = held.svc.snapshot();
  EXPECT_EQ(stats.submitted, 3);  // the miss, the blocker, the hit
  EXPECT_EQ(stats.served_ok, 2);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.latency_samples, 2);
  EXPECT_EQ(held.gate->entered.load(), 1);
}

TEST(PartitionService, FullQueueStillServesCachedKeys) {
  PartitionRequest queued[2], uncached, hit;
  ServiceConfig cfg = small_config(1);
  cfg.queue_capacity = 2;
  HeldWorker held(cfg);
  ASSERT_TRUE(held.held());
  for (std::uint64_t i = 0; i < 2; ++i) {
    queued[i].spec = spec_for("ba", 20 + i);
    ASSERT_TRUE(held.svc.try_submit(queued[i]));
  }
  uncached.spec = spec_for("ba", 30);
  EXPECT_FALSE(held.svc.try_submit(uncached));
  EXPECT_EQ(uncached.status(), ServiceStatus::kRejected);
  hit.spec = spec_for("ba");
  ASSERT_TRUE(held.svc.try_submit(hit));
  EXPECT_EQ(hit.status(), ServiceStatus::kOk);
  EXPECT_EQ(hit.result().get(), held.cached.get());
  const ServiceStats stats = held.svc.snapshot();
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.cache_hits, 1);

  held.gate->open.store(true);
  for (PartitionRequest& req : queued) {
    EXPECT_EQ(req.wait(), ServiceStatus::kOk);
  }
}

TEST(PartitionService, BypassCacheRequestWaitsForAWorker) {
  PartitionRequest fresh;
  HeldWorker held(small_config(1));
  ASSERT_TRUE(held.held());
  fresh.spec = spec_for("ba");
  fresh.bypass_cache = true;
  ASSERT_TRUE(held.svc.try_submit(fresh));
  EXPECT_EQ(fresh.status(), ServiceStatus::kPending);

  held.gate->open.store(true);
  ASSERT_EQ(fresh.wait(), ServiceStatus::kOk);
  EXPECT_FALSE(fresh.served_from_cache());
  EXPECT_NE(fresh.result().get(), held.cached.get());
  EXPECT_TRUE(*fresh.result() == *held.cached);
  const ServiceStats stats = held.svc.snapshot();
  EXPECT_EQ(stats.bypassed, 1);
  EXPECT_EQ(stats.cache_hits, 0);
}

TEST(PartitionService, StoppedServiceRefusesCachedKeys) {
  PartitionService svc(small_config(1));
  (void)svc.call(spec_for("ba"));
  svc.stop();
  PartitionRequest req;
  req.spec = spec_for("ba");
  EXPECT_FALSE(svc.try_submit(req));
  EXPECT_EQ(req.status(), ServiceStatus::kShutdown);
  EXPECT_EQ(req.result(), nullptr);
  const ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.shutdown_drained, 1);
}

TEST(PartitionService, CancelledCachedKeyCompletesThroughItsTask) {
  core::CancelToken token;
  token.cancel();
  PartitionRequest cancelled, expired;
  HeldWorker held(small_config(1));
  ASSERT_TRUE(held.held());
  cancelled.spec = expired.spec = spec_for("ba");
  cancelled.cancel = &token;
  ASSERT_TRUE(held.svc.try_submit(cancelled));
  EXPECT_EQ(cancelled.status(), ServiceStatus::kPending);
  expired.set_deadline_after(1e-6);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(held.svc.try_submit(expired));
  EXPECT_EQ(expired.status(), ServiceStatus::kPending);

  held.gate->open.store(true);
  for (PartitionRequest* req : {&cancelled, &expired}) {
    EXPECT_EQ(req->wait(), ServiceStatus::kCancelled);
    EXPECT_EQ(req->result(), nullptr);
    EXPECT_FALSE(req->served_from_cache());
  }
  const ServiceStats stats = held.svc.snapshot();
  EXPECT_EQ(stats.cancelled, 2);
  EXPECT_EQ(stats.cache_hits, 0);
}

// A request whose key is queued joins its leader's batch at admission: it
// takes no queue slot, so a full queue still accepts it.
TEST(PartitionService, TwinOfAQueuedLeaderJoinsAtAdmission) {
  PartitionRequest leader, twin;
  ServiceConfig cfg = small_config(1);
  cfg.queue_capacity = 1;
  HeldWorker held(cfg);
  ASSERT_TRUE(held.held());
  leader.spec = twin.spec = spec_for("ba", 40);
  ASSERT_TRUE(held.svc.try_submit(leader));  // fills the queue
  ASSERT_TRUE(held.svc.try_submit(twin));
  EXPECT_EQ(twin.status(), ServiceStatus::kPending);
  EXPECT_EQ(held.svc.snapshot().coalesced, 1);

  held.gate->open.store(true);
  ASSERT_EQ(leader.wait(), ServiceStatus::kOk);
  ASSERT_EQ(twin.wait(), ServiceStatus::kOk);
  EXPECT_FALSE(leader.served_from_cache());
  EXPECT_TRUE(twin.served_from_cache());
  EXPECT_EQ(twin.result().get(), leader.result().get());
  EXPECT_EQ(held.svc.snapshot().rejected, 0);
}

// A batch computes while any request in it still waits: a leader cancelled
// in the queue computes for its live twin, and the value is cached.
TEST(PartitionService, CancelledLeaderStillComputesForItsLiveTwin) {
  core::CancelToken token;
  PartitionRequest leader, twin, after;
  HeldWorker held(small_config(1));
  ASSERT_TRUE(held.held());
  leader.spec = twin.spec = after.spec = spec_for("ba", 50);
  leader.cancel = &token;
  held.svc.submit(leader);
  held.svc.submit(twin);
  token.cancel();

  held.gate->open.store(true);
  EXPECT_EQ(leader.wait(), ServiceStatus::kCancelled);
  EXPECT_EQ(leader.result(), nullptr);
  ASSERT_EQ(twin.wait(), ServiceStatus::kOk);
  ASSERT_TRUE(held.svc.try_submit(after));
  EXPECT_EQ(after.status(), ServiceStatus::kOk);  // cached at admission
  EXPECT_EQ(after.result().get(), twin.result().get());
  const ServiceStats stats = held.svc.snapshot();
  // One compute for the key, after HeldWorker's two.
  EXPECT_EQ(stats.cache_misses, 3);
  EXPECT_EQ(stats.coalesced, 1);
  EXPECT_EQ(stats.cancelled, 1);
}

// ---------------------------------------------------------------------------
// Admission control

TEST(PartitionService, AdmissionControlRejectsWhenQueueFull) {
  PartitionRequest blocker, q1, q2, overflow;
  auto gate = install_gate();
  ServiceConfig cfg = small_config(1);
  cfg.queue_capacity = 2;
  PartitionService svc(cfg);
  const GateOpener opener{gate};

  blocker.spec = spec_for("svc_test:gate");
  svc.submit(blocker);
  ASSERT_TRUE(eventually([&] { return gate->entered.load() == 1; }));

  // The single worker is busy; fill the queue to capacity.  Distinct keys:
  // a request whose key is queued joins that batch and takes no slot.
  q1.spec = spec_for("ba", 1);
  q2.spec = spec_for("ba", 2);
  overflow.spec = spec_for("ba", 3);
  ASSERT_TRUE(svc.try_submit(q1));
  ASSERT_TRUE(svc.try_submit(q2));

  EXPECT_FALSE(svc.try_submit(overflow));
  EXPECT_EQ(overflow.status(), ServiceStatus::kRejected);
  try {
    svc.submit(overflow);
    FAIL() << "submit() must throw AdmissionError when the queue is full";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.status(), ServiceStatus::kRejected);
  }

  gate->open.store(true);
  EXPECT_EQ(blocker.wait(), ServiceStatus::kOk);
  EXPECT_EQ(q1.wait(), ServiceStatus::kOk);
  EXPECT_EQ(q2.wait(), ServiceStatus::kOk);
  const ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.rejected, 2);
  // A rejected block is reusable once the pressure is gone.
  svc.submit(overflow);
  EXPECT_EQ(overflow.wait(), ServiceStatus::kOk);
}

// ---------------------------------------------------------------------------
// Cancellation under load

TEST(PartitionService, CancelledWhileQueuedCompletesWithoutComputing) {
  core::CancelToken token;
  PartitionRequest blocker, c1, c2, again;
  auto gate = install_gate();
  PartitionService svc(small_config(1));
  const GateOpener opener{gate};

  blocker.spec = spec_for("svc_test:gate");
  svc.submit(blocker);
  ASSERT_TRUE(eventually([&] { return gate->entered.load() == 1; }));

  c1.spec = c2.spec = spec_for("ba", 77);
  c1.cancel = &token;
  c2.cancel = &token;
  svc.submit(c1);
  svc.submit(c2);
  token.cancel();
  gate->open.store(true);

  EXPECT_EQ(blocker.wait(), ServiceStatus::kOk);
  EXPECT_EQ(c1.wait(), ServiceStatus::kCancelled);
  EXPECT_EQ(c2.wait(), ServiceStatus::kCancelled);
  EXPECT_EQ(c1.result(), nullptr);

  const ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.cancelled, 2);
  // The cancelled key was never computed, so nothing (valid or poisoned)
  // was cached for it; the gate key is the single entry.
  EXPECT_EQ(stats.cache_entries, 1);
  // And the key still serves normally afterwards.
  again.spec = spec_for("ba", 77);
  svc.submit(again);
  EXPECT_EQ(again.wait(), ServiceStatus::kOk);
  EXPECT_FALSE(again.served_from_cache());
}

TEST(PartitionService, CancelledMidBatchDoesNotPoisonTheCache) {
  core::CancelToken token;
  PartitionRequest leader, follower, after;
  auto gate = install_gate();
  PartitionService svc(small_config(2));
  const GateOpener opener{gate};

  leader.spec = spec_for("svc_test:gate");
  svc.submit(leader);
  ASSERT_TRUE(eventually([&] { return gate->entered.load() == 1; }));

  follower.spec = spec_for("svc_test:gate");
  follower.cancel = &token;
  svc.submit(follower);
  ASSERT_TRUE(
      eventually([&] { return svc.snapshot().coalesced == 1; }));

  // The token fires while the follower is attached to the computing batch:
  // it must come back kCancelled even though the batch succeeds.
  token.cancel();
  gate->open.store(true);
  EXPECT_EQ(leader.wait(), ServiceStatus::kOk);
  EXPECT_EQ(follower.wait(), ServiceStatus::kCancelled);
  EXPECT_EQ(follower.result(), nullptr);

  // The computed value stayed valid for the key: a third request hits the
  // cache and matches the leader byte for byte.
  after.spec = spec_for("svc_test:gate");
  svc.submit(after);
  ASSERT_EQ(after.wait(), ServiceStatus::kOk);
  EXPECT_TRUE(after.served_from_cache());
  EXPECT_EQ(after.result().get(), leader.result().get());
  EXPECT_EQ(gate->entered.load(), 1);
}

TEST(PartitionService, DeadlineExpiryCancelsQueuedRequest) {
  PartitionRequest blocker, doomed;
  auto gate = install_gate();
  PartitionService svc(small_config(1));
  const GateOpener opener{gate};

  blocker.spec = spec_for("svc_test:gate");
  svc.submit(blocker);
  ASSERT_TRUE(eventually([&] { return gate->entered.load() == 1; }));

  doomed.spec = spec_for("ba", 99);
  doomed.set_deadline_after(1e-4);
  svc.submit(doomed);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate->open.store(true);

  EXPECT_EQ(blocker.wait(), ServiceStatus::kOk);
  EXPECT_EQ(doomed.wait(), ServiceStatus::kCancelled);
  EXPECT_GT(doomed.latency_ms(), 0.0);
}

// A NaN delay is refused; a deadline later than the steady clock can hold
// never passes, so the request is served.
TEST(PartitionService, DeadlinesPastTheClockNeverPass) {
  PartitionService svc(small_config(1));
  PartitionRequest req;
  EXPECT_THROW(req.set_deadline_after(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  std::uint64_t seed = 60;  // a fresh key each, so each runs its task
  for (const double seconds :
       {1e10, std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(seconds);
    req.spec = spec_for("ba", seed++);
    req.set_deadline_after(seconds);
    svc.submit(req);
    EXPECT_EQ(req.wait(), ServiceStatus::kOk);
  }
}

// ---------------------------------------------------------------------------
// Shutdown

TEST(PartitionService, StopDrainsQueueAndRefusesNewWork) {
  for (const std::int32_t workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::vector<PartitionRequest> inflight(static_cast<std::size_t>(workers));
    PartitionRequest queued[3], twin, late;
    auto gate = install_gate();
    PartitionService svc(small_config(workers));
    const GateOpener opener{gate};

    // One gated request per worker, with distinct keys so that none
    // coalesces: every worker is busy and the next requests queue.
    for (std::size_t i = 0; i < inflight.size(); ++i) {
      inflight[i].spec = spec_for("svc_test:gate", i + 1);
      svc.submit(inflight[i]);
    }
    ASSERT_TRUE(eventually([&] { return gate->entered.load() == workers; }));

    for (std::uint64_t i = 0; i < 3; ++i) {
      queued[i].spec = spec_for("ba", 10 + i);
      svc.submit(queued[i]);
    }
    // A twin of a queued request joins its batch and drains with it.
    twin.spec = spec_for("ba", 10);
    svc.submit(twin);

    // stop() waits for the workers, which are blocked on the gate: release
    // them from a helper thread once the drain has begun.
    std::thread releaser([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      gate->open.store(true);
    });
    svc.stop();
    releaser.join();

    // The in-flight batches completed normally; the queued requests
    // drained, and stop() returned only after all of them were terminal.
    for (PartitionRequest& req : inflight) {
      EXPECT_EQ(req.status(), ServiceStatus::kOk);
    }
    for (PartitionRequest* req : {&queued[0], &queued[1], &queued[2], &twin}) {
      EXPECT_EQ(req->status(), ServiceStatus::kShutdown);
      EXPECT_EQ(req->result(), nullptr);
    }

    late.spec = spec_for("ba");
    EXPECT_FALSE(svc.try_submit(late));
    EXPECT_EQ(late.status(), ServiceStatus::kShutdown);
    try {
      svc.submit(late);
      FAIL() << "submit() after stop() must throw AdmissionError";
    } catch (const AdmissionError& e) {
      EXPECT_EQ(e.status(), ServiceStatus::kShutdown);
    }
    // Four drained plus two refused.
    EXPECT_EQ(svc.snapshot().shutdown_drained, 6);
    svc.stop();  // idempotent
  }
}

// stop() racing submitters: whatever the interleaving, an accepted request
// is served or drained and a refused one is final at once, so nothing is
// left pending once stop() has returned and the submitters are done.
TEST(PartitionService, StopRacingSubmittersLeavesNothingPending) {
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 16;
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    ServiceConfig cfg = small_config(2);
    cfg.queue_capacity = 8;  // small enough that some requests are rejected
    PartitionService svc(cfg);
    std::vector<std::vector<PartitionRequest>> reqs(kSubmitters);
    std::vector<std::vector<char>> accepted(kSubmitters);
    std::atomic<bool> go{false};
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int t = 0; t < kSubmitters; ++t) {
      reqs[t] = std::vector<PartitionRequest>(kPerSubmitter);
      accepted[t].assign(kPerSubmitter, 0);
      submitters.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        std::this_thread::sleep_for(
            std::chrono::microseconds((t * 37 + round * 53) % 300));
        for (int i = 0; i < kPerSubmitter; ++i) {
          reqs[t][i].spec =
              spec_for("ba", static_cast<std::uint64_t>(t * 100 + i), 32);
          accepted[t][i] = svc.try_submit(reqs[t][i]) ? 1 : 0;
        }
      });
    }
    go.store(true);
    std::this_thread::sleep_for(std::chrono::microseconds((round * 29) % 300));
    svc.stop();
    for (std::thread& t : submitters) t.join();

    std::int64_t ok = 0, shutdown = 0, rejected = 0;
    for (int t = 0; t < kSubmitters; ++t) {
      for (int i = 0; i < kPerSubmitter; ++i) {
        const ServiceStatus status = reqs[t][i].status();
        if (accepted[t][i] != 0) {
          EXPECT_TRUE(status == ServiceStatus::kOk ||
                      status == ServiceStatus::kShutdown)
              << "accepted request ended " << to_string(status);
        } else {
          EXPECT_TRUE(status == ServiceStatus::kRejected ||
                      status == ServiceStatus::kShutdown)
              << "refused request ended " << to_string(status);
        }
        ok += status == ServiceStatus::kOk ? 1 : 0;
        shutdown += status == ServiceStatus::kShutdown ? 1 : 0;
        rejected += status == ServiceStatus::kRejected ? 1 : 0;
      }
    }
    const ServiceStats stats = svc.snapshot();
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.served_ok, ok);
    EXPECT_EQ(stats.shutdown_drained, shutdown);
    EXPECT_EQ(stats.rejected, rejected);
  }
}

// ---------------------------------------------------------------------------
// Stats and reporting

TEST(PartitionService, ReportsCoherentStats) {
  PartitionService svc(small_config(1));
  for (int i = 0; i < 3; ++i) (void)svc.call(spec_for("ba", 1));
  (void)svc.call(spec_for("ba", 2));

  const ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.served_ok, 4);
  EXPECT_EQ(stats.cache_hits, 2);
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(stats.cache_entries, 2);
  EXPECT_EQ(stats.workers, 1);
  EXPECT_EQ(stats.latency_samples, 4);
  EXPECT_GT(stats.p50_ms, 0.0);
  EXPECT_LE(stats.p50_ms, stats.p95_ms);
  EXPECT_LE(stats.p95_ms, stats.p99_ms);
  EXPECT_GT(stats.partitions_per_sec, 0.0);

  // reset_stats() zeroes the window but keeps the cache warm.
  svc.reset_stats();
  const ServiceStats after = svc.snapshot();
  EXPECT_EQ(after.submitted, 0);
  EXPECT_EQ(after.latency_samples, 0);
  EXPECT_EQ(after.cache_entries, 2);
  PartitionRequest req;
  req.spec = spec_for("ba", 1);
  svc.submit(req);
  ASSERT_EQ(req.wait(), ServiceStatus::kOk);
  EXPECT_TRUE(req.served_from_cache());
}

// ---------------------------------------------------------------------------
// Concurrency smoke: many callers, many keys, every answer correct

TEST(PartitionService, ConcurrentCallersGetConsistentAnswers) {
  PartitionService svc(small_config(2));
  constexpr int kCallers = 4;
  constexpr int kRounds = 25;
  std::vector<std::string> failures(kCallers);
  {
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        PartitionRequest req;
        for (int r = 0; r < kRounds; ++r) {
          req.spec = spec_for("ba", static_cast<std::uint64_t>(r % 5), 64);
          if (!svc.try_submit(req)) {
            failures[c] = "rejected";
            return;
          }
          if (req.wait() != ServiceStatus::kOk) {
            failures[c] = "status " +
                          std::string(to_string(req.status())) + ": " +
                          req.error_message();
            return;
          }
          if (req.result()->pieces.size() != 64u) {
            failures[c] = "wrong piece count";
            return;
          }
        }
      });
    }
    for (std::thread& t : callers) t.join();
  }
  for (const std::string& f : failures) EXPECT_EQ(f, "");
  const ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.served_ok, kCallers * kRounds);
  // 5 distinct keys; every other completion was a hit or coalesced.
  EXPECT_EQ(stats.cache_entries, 5);
  EXPECT_EQ(stats.cache_hits + stats.coalesced + stats.cache_misses,
            stats.served_ok);
  EXPECT_EQ(stats.cache_misses, 5);
}

}  // namespace
}  // namespace lbb::service

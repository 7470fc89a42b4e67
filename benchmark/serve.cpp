// Workloads serve_hot and serve_cold: the resident PartitionService with 2
// workers and a 4096-entry cache, driven by callers that each wait for
// their reply (a closed loop).  One generator thread plays every caller,
// so 3 threads run.
//
//   serve_hot   N = 2^10; 16 callers send single requests over Zipf(1.1)
//               keys from 16384 instances, the hottest 4096 keys
//               pre-warmed: ~78% cache hits.  The read path: admission,
//               cache lookup with second-chance eviction, completion.
//   serve_cold  N = 2^12; 16 callers each send a fresh instance as a burst
//               of two identical requests and wait for both.  The write
//               path: compute, insert, evict and coalesce.
//
// Why closed loops: on a shared VM, an interval that includes waking a
// sleeping worker measures the hypervisor's scheduler, not the service.
// Open-loop generators leave the workers idle between requests, and their
// latencies swung with host load: serve_hot's hit p50 between 8 us and
// 72 us, serve_cold's ba p50 between 0.29 ms and 1.5 ms, from one run to
// the next.  Waiting callers keep both workers saturated, so each
// request's latency is queue wait plus service time, and throughput is the
// service's capacity; their quartile spread stayed near 10% in the same
// contended hours.  The cost: a service stall delays the callers' next
// requests instead of piling up scheduled ones (coordinated omission), so
// stalls are under-counted in the tail.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/cache_key.hpp"
#include "core/partitioner.hpp"
#include "core/run_context.hpp"
#include "core/workspace.hpp"
#include "harness.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "service/partition_service.hpp"
#include "stats/rng.hpp"

namespace lbb::perf {
namespace {

using service::PartitionRequest;
using service::PartitionResult;
using service::PartitionService;
using service::RequestSpec;
using service::ServiceStatus;

constexpr const char* kAlgos[] = {"ba", "ba_hf", "hf"};
constexpr int kAlgoCount = 3;
constexpr std::size_t kCacheCapacity = 4096;
constexpr std::int32_t kUniverse = 16384;  ///< serve_hot instances

struct Traffic {
  std::int32_t n;
  int callers;
  int burst;  ///< identical requests per caller turn
  bool zipf;  ///< Zipf keys over the universe, else every instance fresh
};
constexpr Traffic kHot{1 << 10, 16, 1, true};
constexpr Traffic kCold{1 << 12, 16, 2, false};

RequestSpec spec_for(int algo, std::uint64_t seed, std::int32_t n) {
  RequestSpec spec;
  spec.algo = kAlgos[algo];
  spec.problem_seed = seed;
  spec.n = n;
  spec.alpha_lo = 0.1;
  spec.alpha_hi = 0.5;
  spec.alpha = 0.1;
  spec.beta = 1.0;
  return spec;
}

/// Instance seed of serve_hot's Zipf rank `rank` (0 = hottest).
std::uint64_t hot_seed(std::uint64_t seed, std::int64_t rank) {
  return stats::mix64(seed ^ 0x407u, static_cast<std::uint64_t>(rank));
}

/// The instance seeds a run sends, in order.
class Keys {
 public:
  Keys(const Traffic& traffic, std::uint64_t seed)
      : traffic_(traffic), seed_(seed), rng_(stats::mix64(seed, 0x5eedu)) {
    if (!traffic.zipf) return;
    cdf_.resize(kUniverse);
    double total = 0.0;
    for (std::int32_t k = 0; k < kUniverse; ++k) {
      total += std::pow(static_cast<double>(k + 1), -1.1);
      cdf_[static_cast<std::size_t>(k)] = total;
    }
  }

  std::uint64_t next() {
    if (!traffic_.zipf) {
      return stats::mix64(seed_ ^ 0xc01du, static_cast<std::uint64_t>(n_++));
    }
    const double u = stats::hash_to_unit(rng_()) * cdf_.back();
    const auto rank =
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return hot_seed(seed_, std::min<std::int64_t>(rank, kUniverse - 1));
  }

 private:
  const Traffic& traffic_;
  std::uint64_t seed_;
  stats::Xoshiro256 rng_;
  std::vector<double> cdf_;
  std::int64_t n_ = 0;
};

/// Per-request outcome (single precision keeps millions of them small).
struct Outcome {
  float latency_ms = 0.0f;  ///< enqueue to completion; inf = failed
  float submit_us = 0.0f;   ///< time inside try_submit
  float late_ms = 0.0f;     ///< completion to the caller's next submit
  std::uint64_t seed = 0;
  std::uint8_t algo = 0;
  bool ok = false;
  bool hit = false;
};

struct Sample {
  RequestSpec spec;
  std::shared_ptr<const PartitionResult> result;
};

struct Measured {
  std::vector<Outcome> kept;  ///< outcomes of every 4th caller turn
  std::vector<Sample> samples;
  service::ServiceStats snapshot;
  double throughput = 0.0;  ///< completed requests per second
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Runs `traffic` against `svc` for `seconds`: each caller submits its
/// burst, and the generator resubmits a caller's next burst as soon as it
/// sees every request of the last one complete.
Measured closed_loop(const Traffic& traffic, PartitionService& svc,
                     std::uint64_t seed, double seconds) {
  struct Block {
    PartitionRequest req;
    std::int64_t index = 0;
    int algo = 0;
    std::int64_t submit_ns = 0;
    std::int64_t submitted_ns = 0;
    bool accepted = false;
  };
  const int blocks = traffic.callers * traffic.burst;
  const auto block = std::make_unique<Block[]>(static_cast<std::size_t>(blocks));
  Keys keys(traffic, seed);
  const bool traced = Tracer::instance().on();
  Measured m;
  m.kept.reserve(std::size_t{1} << 20);
  std::int64_t next_index = 0;
  std::int64_t instance = 0;
  const auto submit = [&](int caller) {
    const auto algo = static_cast<int>(instance++ % kAlgoCount);
    const RequestSpec spec = spec_for(algo, keys.next(), traffic.n);
    for (int r = 0; r < traffic.burst; ++r) {
      Block& b = block[caller * traffic.burst + r];
      b.index = next_index++;
      b.algo = algo;
      b.req.spec = spec;
      b.submit_ns = now_ns();
      b.accepted = svc.try_submit(b.req);
      b.submitted_ns = now_ns();
    }
  };
  const auto busy = [&](int caller) {
    for (int r = 0; r < traffic.burst; ++r) {
      const Block& b = block[caller * traffic.burst + r];
      if (b.accepted && b.req.status() == ServiceStatus::kPending) return true;
    }
    return false;
  };

  svc.reset_stats();
  const std::int64_t start = now_ns();
  const std::int64_t end = start + std::llround(seconds * 1e9);
  for (int c = 0; c < traffic.callers; ++c) submit(c);
  for (std::int64_t now = now_ns(); now < end; now = now_ns()) {
    for (int c = 0; c < traffic.callers; ++c) {
      if (busy(c)) continue;
      for (int r = 0; r < traffic.burst; ++r) {
        const Block& b = block[c * traffic.burst + r];
        // Whole caller turns are sampled, so a burst's requests stay
        // together.
        const std::int64_t turn = b.index / traffic.burst;
        Outcome o;
        o.algo = static_cast<std::uint8_t>(b.algo);
        o.seed = b.req.spec.problem_seed;
        o.submit_us =
            static_cast<float>(b.submitted_ns - b.submit_ns) * 1e-3f;
        o.ok = b.accepted && b.req.status() == ServiceStatus::kOk;
        o.hit = o.ok && b.req.served_from_cache();
        o.latency_ms = o.ok ? static_cast<float>(b.req.latency_ms())
                            : std::numeric_limits<float>::infinity();
        if (o.ok) {
          const double done_ns =
              static_cast<double>(b.submit_ns) + b.req.latency_ms() * 1e6;
          o.late_ms =
              static_cast<float>((static_cast<double>(now) - done_ns) * 1e-6);
          if (b.index % 97 == 0 && m.samples.size() < 200) {
            m.samples.push_back(Sample{b.req.spec, b.req.result()});
          }
          if (traced && turn % 64 == 0) {
            auto& tracer = Tracer::instance();
            const auto id = static_cast<std::uint64_t>(b.index);
            tracer.async("service.request", id, b.submit_ns,
                         std::llround(done_ns));
            tracer.async("service.submit", id, b.submit_ns, b.submitted_ns);
          }
        }
        ++m.attempted;
        if (!o.ok) ++m.failed;
        if (turn % 4 == 0) m.kept.push_back(o);
      }
      submit(c);
    }
  }
  m.snapshot = svc.snapshot();
  for (int i = 0; i < blocks; ++i) {
    if (block[i].accepted) block[i].req.wait();
  }
  m.throughput =
      static_cast<double>(m.attempted) / seconds_between(start, end);
  return m;
}

/// What a resident service holds before taking traffic.
void prewarm(const Traffic& traffic, std::uint64_t seed,
             PartitionService& svc) {
  std::vector<RequestSpec> specs;
  for (std::int64_t i = 0; static_cast<std::size_t>(i) < kCacheCapacity;
       ++i) {
    const int algo = static_cast<int>(i % kAlgoCount);
    if (traffic.zipf) {
      // The hottest 4096 (algorithm, instance) keys.
      specs.push_back(spec_for(algo, hot_seed(seed, i / kAlgoCount),
                               traffic.n));
    } else if (i < 64 * kAlgoCount) {
      // Worker workspaces sized for N, on instances the run never sends.
      specs.push_back(spec_for(
          algo, stats::mix64(seed ^ 0xa11u, static_cast<std::uint64_t>(i)),
          traffic.n));
    }
  }
  // Every submitted block is waited for before any error leaves: the
  // service holds pointers to pending requests.
  std::vector<PartitionRequest> reqs(specs.size());
  std::size_t submitted = 0;
  bool ok = true;
  for (; submitted < specs.size() && ok; ++submitted) {
    reqs[submitted].spec = specs[submitted];
    ok = svc.try_submit(reqs[submitted]);
  }
  for (std::size_t i = 0; i < submitted; ++i) {
    ok = reqs[i].wait() == ServiceStatus::kOk && ok;
  }
  if (!ok) throw std::runtime_error("serve: pre-warm request failed");
}

/// A miss's compute alone: the registry call the service makes for the
/// request's canonical key, timed directly.
double compute_ms(const RequestSpec& spec,
                  core::TrialWorkspace<problems::SyntheticProblem>& ws) {
  const core::PartitionCacheKey key = core::make_synthetic_cache_key(
      spec.algo, spec.problem_seed, spec.n, spec.alpha_lo, spec.alpha_hi,
      spec.alpha, spec.beta);
  core::PartitionerConfig pc;
  pc.alpha = key.alpha();
  pc.beta = key.beta();
  const auto part =
      core::PartitionerRegistry::instance().create(key.algo_name(), pc);
  core::RunContext ctx(key.run_seed());
  const problems::SyntheticProblem problem(
      key.problem_seed,
      problems::AlphaDistribution::uniform(key.alpha_lo(), key.alpha_hi()));
  const std::int64_t t0 = now_ns();
  auto out = core::try_typed_partition(*part, ctx, ws, problem, key.n);
  const double ms = seconds_between(t0, now_ns()) * 1e3;
  ws.recycle(std::move(*out));
  ws.reset();
  return ms;
}

/// Every 97th served answer must equal a cache-bypassing recompute on a
/// fresh single-worker service and be a full partition of the instance.
std::int64_t check_samples(const std::vector<Sample>& samples) {
  service::ServiceConfig config;
  config.workers = 1;
  PartitionService fresh(config);
  std::int64_t mismatched = 0;
  for (const Sample& s : samples) {
    PartitionRequest req;
    req.spec = s.spec;
    req.bypass_cache = true;
    bool ok = fresh.try_submit(req) && req.wait() == ServiceStatus::kOk &&
              *req.result() == *s.result;
    const PartitionResult& r = *s.result;
    double sum = 0.0;
    for (const service::PieceRecord& p : r.pieces) sum += p.weight;
    ok = ok && r.pieces.size() == static_cast<std::size_t>(s.spec.n) &&
         std::abs(sum - r.total_weight) <= 1e-9 * r.total_weight;
    if (!ok) ++mismatched;
  }
  return mismatched;
}

}  // namespace

void run_serve(const Options& opt, bool hot, Report& report) {
  const std::string name = hot ? "serve_hot" : "serve_cold";
  const Traffic& traffic = hot ? kHot : kCold;
  Span workload(hot ? "benchmark.serve_hot" : "benchmark.serve_cold");
  service::ServiceConfig config;
  config.workers = 2;
  config.cache_capacity = kCacheCapacity;
  config.queue_capacity = 2 * kCacheCapacity;  // room for the pre-warm

  std::unique_ptr<PartitionService> svc;
  std::vector<double> setup;
  for (int i = 0; i < 3; ++i) {
    svc.reset();
    Span span("benchmark.setup");
    const std::int64_t t0 = now_ns();
    svc = std::make_unique<PartitionService>(config);
    prewarm(traffic, opt.seed, *svc);
    setup.push_back(seconds_between(t0, now_ns()));
  }

  Measured m;
  {
    Span measure("benchmark.measure");
    m = closed_loop(traffic, *svc, opt.seed, opt.seconds);
  }
  svc->stop();

  std::int64_t mismatched = 0;
  {
    Span span("benchmark.check");
    mismatched = check_samples(m.samples);
  }
  report.check(name + ".served_equals_recompute",
               mismatched == 0 && !m.samples.empty(),
               std::to_string(m.samples.size()) + " samples, " +
                   std::to_string(mismatched) + " mismatched");
  report.check(name + ".no_failed_requests", m.failed == 0,
               std::to_string(m.failed) + " failed");
  report.count(m.attempted + static_cast<std::int64_t>(m.samples.size()),
               m.failed + mismatched);

  report.metric("setup_s", median(setup), "s",
                static_cast<std::int64_t>(setup.size()));
  std::vector<double> per_algo[kAlgoCount];
  std::vector<double> hit_ms, miss_ms, submit_us, late_ms;
  std::vector<RequestSpec> miss_specs;
  for (const Outcome& o : m.kept) {
    per_algo[o.algo].push_back(o.latency_ms);
    submit_us.push_back(o.submit_us);
    if (!o.ok) continue;
    late_ms.push_back(o.late_ms);
    (o.hit ? hit_ms : miss_ms).push_back(o.latency_ms);
    if (!o.hit && miss_specs.size() < 200) {
      miss_specs.push_back(spec_for(o.algo, o.seed, traffic.n));
    }
  }
  for (int a = 0; a < kAlgoCount; ++a) {
    report.metric(std::string(kAlgos[a]) + "_ms_p50", median(per_algo[a]),
                  "ms", static_cast<std::int64_t>(per_algo[a].size()));
  }
  report.metric("throughput_per_s", m.throughput, "1/s", m.attempted);

  if (!opt.layers) return;
  const auto count = [](const std::vector<double>& v) {
    return static_cast<std::int64_t>(v.size());
  };
  report.metric("service.submit_us_p50", quantile(submit_us, 0.5), "us",
                count(submit_us));
  report.metric("service.submit_us_p99", quantile(submit_us, 0.99), "us",
                count(submit_us));
  report.metric("service.hit_latency_ms_p50", quantile(hit_ms, 0.5), "ms",
                count(hit_ms));
  report.metric("service.hit_latency_ms_p99", quantile(hit_ms, 0.99), "ms",
                count(hit_ms));
  report.metric("service.miss_latency_ms_p50", quantile(miss_ms, 0.5), "ms",
                count(miss_ms));
  report.metric("service.miss_latency_ms_p99", quantile(miss_ms, 0.99), "ms",
                count(miss_ms));
  core::TrialWorkspace<problems::SyntheticProblem> ws;
  std::vector<double> compute;
  for (const RequestSpec& spec : miss_specs) {
    compute.push_back(compute_ms(spec, ws));
  }
  report.metric("service.compute_ms_p50", median(compute), "ms",
                count(compute));
  report.metric("service.miss_overhead_ms_p50",
                quantile(miss_ms, 0.5) - median(compute), "ms",
                count(miss_ms));
  const service::ServiceStats& snap = m.snapshot;
  const double completed =
      std::max(1.0, static_cast<double>(snap.completed));
  report.metric("service.hit_rate",
                static_cast<double>(snap.cache_hits) / completed, "frac",
                snap.completed);
  report.metric("service.coalesce_rate",
                static_cast<double>(snap.coalesced) / completed, "frac",
                snap.completed);
  report.metric("service.eviction_rate",
                static_cast<double>(snap.cache_evictions) / completed, "frac",
                snap.completed);
  report.metric("service.reject_rate",
                static_cast<double>(snap.rejected) /
                    std::max(1.0, static_cast<double>(snap.submitted +
                                                      snap.rejected)),
                "frac", snap.submitted + snap.rejected);
  report.metric("service.worker_allocs_per_req",
                static_cast<double>(snap.alloc_count) / completed, "count",
                snap.completed);
  report.metric("service.backlog_max",
                static_cast<double>(traffic.callers * traffic.burst), "count",
                1);
  report.metric("service.gen_lateness_ms_p99", quantile(late_ms, 0.99), "ms",
                count(late_ms));
}

}  // namespace lbb::perf

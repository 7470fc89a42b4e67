// Partition-as-a-service: a resident process answering a stream of
// partition requests (ROADMAP item 2 -- the "millions of users" framing of
// the paper's algorithms).
//
// Request lifecycle:
//
//   caller: try_submit(req), one critical section  the leader's pool task
//   ---------------------------------------------  ----------------------
//   a. stopped?                  -> kShutdown (false)
//   b. key cached?               -> kOk (hit) on the caller's thread,
//                                   before try_submit returns; no task
//   c. key pending?              -> join its leader's batch (coalesced);
//                                   no task, no queue slot
//   d. queue_capacity tasks wait -> kRejected (false)
//   e. else enter the key pending
//      and enqueue one task ────────────────────►  1. stopped? -> the batch
//                                                     is kShutdown
//                                                  2. every request in the
//                                                     batch cancelled or
//                                                     expired? -> kCancelled
//                                                  3. else compute once,
//                                                     cache or drop the
//   req.wait()  ◄───────────────────────────────      key, and complete
//                                                     every request in the
//                                                     batch
//
// The key table holds each key once: pending from its leader's admission
// until that leader's task completes the batch, then cached (or dropped).
// Steps b and c skip requests that bypass the cache or are already
// cancelled at admission: they neither read nor enter the table, and each
// takes its own task.
//
// Determinism & memoization: requests are canonicalized into a
// core::PartitionCacheKey (quantized alpha-band; see core/cache_key.hpp)
// and computed from the CANONICAL key -- dequantized parameters, RNG seed
// derived from the key -- so a cache hit is byte-identical to the miss
// that filled it and to any recompute of the same key, on any server.
// The `service` ctest suite asserts this for every deterministic
// partitioner family.
//
// Allocation contract: warm serving (cache hits) is allocation-free -- a
// hit found at admission touches only the caller's thread, the latency
// reservoir and the completion protocol (C++20 atomic wait/notify) are
// preallocated, and a hit only copies a shared_ptr.  The key table's
// buckets are reserved for every cached and pending key, and the pool's
// task ring stops growing once it has held the deepest backlog.
// Worker-side allocations are measured per task (stats/alloc_stats.hpp)
// and surface as ServiceStats::alloc_count, which the perf alloc gate pins
// to zero in the warm steady state.  Misses allocate (the table node at
// admission, the cached result in the task): that is the cold path by
// definition.
//
// Tail latency: every served request records submit-to-completion time in
// a stats::PercentileReservoir; snapshot() exposes p50/p95/p99 and
// partitions/sec.  The repository benchmark times the service from
// outside (benchmark/serve.cpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/cache_key.hpp"
#include "core/partitioner.hpp"
#include "core/run_context.hpp"
#include "core/sync.hpp"
#include "runtime/thread_pool.hpp"
#include "stats/percentiles.hpp"

namespace lbb::service {

/// Terminal states of a request.  kPending is the in-flight state the
/// caller waits out; every other value is final.
enum class ServiceStatus : std::uint8_t {
  kPending = 0,
  kOk,         ///< result() is set
  kRejected,   ///< admission control: the request queue was full
  kCancelled,  ///< the request's token fired / deadline passed in flight
  kShutdown,   ///< the service stopped before serving the request
  kError,      ///< compute failed; error_message() has the reason
};

[[nodiscard]] std::string_view to_string(ServiceStatus status) noexcept;

/// Typed admission-control error thrown by the throwing submit()/call()
/// forms when the bounded request queue is full (or the service stopped).
class AdmissionError : public std::runtime_error {
 public:
  AdmissionError(ServiceStatus status, const std::string& what)
      : std::runtime_error(what), status_(status) {}
  [[nodiscard]] ServiceStatus status() const noexcept { return status_; }

 private:
  ServiceStatus status_;
};

/// One piece of a served partition.  The problem instances themselves are
/// not shipped back (the caller can rebuild any piece from the class spec);
/// what is cached and compared byte-for-byte is the assignment.
struct PieceRecord {
  double weight = 0.0;
  std::int32_t processor = 0;
  std::int32_t depth = 0;

  friend bool operator==(const PieceRecord&, const PieceRecord&) = default;
};

/// Immutable served answer, shared between the cache and every response
/// that hit it.
struct PartitionResult {
  std::vector<PieceRecord> pieces;
  double total_weight = 0.0;
  std::int32_t processors = 0;
  std::int64_t bisections = 0;
  std::int32_t max_depth = 0;
  double max_weight = 0.0;
  double ratio = 0.0;

  friend bool operator==(const PartitionResult&,
                         const PartitionResult&) = default;
};

/// What the caller asks for: partition SyntheticProblem(problem_seed,
/// U[alpha_lo, alpha_hi]) into n pieces with registry partitioner `algo`.
/// Canonicalized into a core::PartitionCacheKey at submit time.
struct RequestSpec {
  std::string_view algo = "ba";  ///< registry key; must outlive the request
  std::uint64_t problem_seed = 1;
  std::int32_t n = 64;
  double alpha_lo = 0.1;  ///< problem-class alpha-band
  double alpha_hi = 0.5;
  double alpha = 0.25;    ///< partitioner parameter (ba_star / ba_hf / phf)
  double beta = 1.0;      ///< partitioner parameter (ba_hf)
};

class PartitionService;

/// One in-flight request.  Caller-owned (stack or pooled): the service
/// never allocates or frees request blocks.  Not reusable while pending;
/// submit() re-arms a finished block.  A request must not be destroyed
/// between a successful submit and the terminal-state transition observed
/// by wait().
class PartitionRequest {
 public:
  RequestSpec spec;

  /// Optional cooperative cancellation (not owned; may be nullptr).
  /// Checked at admission (a cancelled request neither reads nor enters
  /// the key table, so it is not answered from the cache), when its
  /// batch's task starts (a batch whose every request is cancelled
  /// computes nothing) and again when the batch completes: firing mid-batch
  /// yields kCancelled without poisoning the cache -- the computed value is
  /// still valid for the key.
  const core::CancelToken* cancel = nullptr;

  /// Skip the memo cache and the batcher entirely: always compute, never
  /// insert.  For byte-identity checks against a fresh compute.
  bool bypass_cache = false;

  /// Sets a per-request deadline `seconds` from now (<= 0 clears).  Throws
  /// std::invalid_argument for NaN; a deadline later than the steady clock
  /// can represent (+inf included) never passes.
  void set_deadline_after(double seconds);

  /// Blocks until the request reaches a terminal state; returns it.
  ServiceStatus wait() noexcept;

  [[nodiscard]] ServiceStatus status() const noexcept {
    return static_cast<ServiceStatus>(state_.load());
  }
  [[nodiscard]] bool ok() const noexcept {
    return status() == ServiceStatus::kOk;
  }
  /// The served answer (kOk only; nullptr otherwise).
  [[nodiscard]] const std::shared_ptr<const PartitionResult>& result()
      const noexcept {
    return result_;
  }
  /// True when a kOk answer came from the memo cache or from a batch the
  /// request joined.
  [[nodiscard]] bool served_from_cache() const noexcept {
    return from_cache_;
  }
  /// Submit-to-completion latency of the last run (milliseconds).
  [[nodiscard]] double latency_ms() const noexcept {
    return latency_ns_ / 1e6;
  }
  /// Failure detail for kError.
  [[nodiscard]] const std::string& error_message() const noexcept {
    return error_;
  }
  /// The canonical key the request was served under (valid after submit).
  [[nodiscard]] const core::PartitionCacheKey& key() const noexcept {
    return key_;
  }

 private:
  friend class PartitionService;
  using Clock = std::chrono::steady_clock;

  /// The token has fired or the deadline had passed at `now`.
  [[nodiscard]] bool cancelled_at(Clock::time_point now) const noexcept {
    return (cancel != nullptr && cancel->cancelled()) ||
           (has_deadline_ && now > deadline_);
  }

  core::PartitionCacheKey key_;
  Clock::time_point enqueue_{};
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  bool leads_ = false;  ///< entered its key pending; its task retires it
  PartitionRequest* batch_next_ = nullptr;  ///< intrusive coalescing link
  std::shared_ptr<const PartitionResult> result_;
  std::string error_;
  double latency_ns_ = 0.0;
  bool from_cache_ = false;
  std::atomic<std::uint8_t> state_{
      static_cast<std::uint8_t>(ServiceStatus::kPending)};
};

/// Construction-time knobs.
struct ServiceConfig {
  /// Pool threads serving requests (0 = hardware_concurrency, min 1).
  std::int32_t workers = 0;
  /// Admission bound: accepted requests whose task has not started yet.
  /// Submissions beyond it are rejected with a typed error (admission
  /// control), never queued unboundedly.  A request answered from the
  /// cache at admission takes no slot, so a full queue still serves hits,
  /// and neither does a request whose key is queued or computing: it joins
  /// that key's batch.
  std::int32_t queue_capacity = 1024;
  /// Memoization cache entry bound (0 caches nothing).  At capacity, a new
  /// entry evicts a cold one by second-chance (clock): a hit sets the
  /// entry's referenced bit, the sweep hand clears bits until it finds an
  /// unreferenced victim (counted as cache_evictions).  Eviction is safe
  /// for byte-identity because every compute of a key is canonical -- a
  /// re-miss after eviction returns the same bytes the evicted entry held.
  std::size_t cache_capacity = 1 << 16;
};

/// Counter/percentile snapshot (see snapshot()).  Latency quantiles are in
/// milliseconds over the most recent 2^14 kOk completions;
/// partitions_per_sec counts kOk completions against the stats epoch.
struct ServiceStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t served_ok = 0;
  std::int64_t cache_hits = 0;        ///< answered from the cache at admission
  std::int64_t cache_misses = 0;      ///< computed (batch leaders)
  std::int64_t coalesced = 0;         ///< joined a pending key's batch
  std::int64_t bypassed = 0;          ///< bypass_cache computes
  std::int64_t rejected = 0;          ///< admission-control rejections
  std::int64_t cancelled = 0;
  std::int64_t shutdown_drained = 0;
  std::int64_t errors = 0;
  std::int64_t cache_entries = 0;
  std::int64_t cache_evictions = 0;  ///< second-chance victims replaced
  std::int64_t alloc_count = 0;  ///< worker-side allocations (probe-linked)
  std::int64_t alloc_bytes = 0;
  std::int64_t latency_samples = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double elapsed_seconds = 0.0;
  double partitions_per_sec = 0.0;
  std::int32_t workers = 0;
};

/// The resident serving process.  Thread-safe: any number of caller
/// threads may submit concurrently; each accepted request runs as one task
/// on a private ThreadPool of `workers` threads.  Lifetime: stop() (or the
/// destructor) completes queued requests with kShutdown and waits until
/// every accepted request is terminal; long-lived embedders should stop
/// the service before tearing down process-wide state it serves from (the
/// registry, shared par:* pools -- see runtime::shutdown_shared_pools()).
class PartitionService {
 public:
  explicit PartitionService(ServiceConfig config = {});
  ~PartitionService();

  PartitionService(const PartitionService&) = delete;
  PartitionService& operator=(const PartitionService&) = delete;

  /// Admits `req`.  Returns false -- with req.status() kRejected or
  /// kShutdown already final -- when admission control refuses; true means
  /// the caller must req.wait() before reusing or destroying the block.  A
  /// cached key (not bypass_cache, not cancelled or expired) is answered
  /// here, on the calling thread: true with req.status() already kOk and
  /// no task enqueued.  A request for a pending key joins its leader's
  /// batch, also with no task.  Every other accepted request becomes one
  /// pool task.  Throws std::invalid_argument for malformed specs
  /// (unknown-size algo name, n < 1, an alpha band that is empty or rounds
  /// to 0, a canonical alpha outside (0, 1/2], a beta that rounds to 0)
  /// before the request is admitted.
  [[nodiscard]] bool try_submit(PartitionRequest& req) LBB_EXCLUDES(mu_);

  /// Like try_submit, but refusal throws AdmissionError (typed, carries
  /// the status).
  void submit(PartitionRequest& req) LBB_EXCLUDES(mu_);

  /// Synchronous convenience: submit + wait; throws AdmissionError on
  /// refusal and std::runtime_error on kError/kCancelled/kShutdown.
  [[nodiscard]] std::shared_ptr<const PartitionResult> call(
      const RequestSpec& spec) LBB_EXCLUDES(mu_);

  /// Refuses new work; queued requests complete with kShutdown and
  /// in-flight batches complete normally; returns once every accepted
  /// request is terminal.  Idempotent; called by the destructor.
  void stop() LBB_EXCLUDES(mu_);

  [[nodiscard]] std::int32_t workers() const noexcept {
    return static_cast<std::int32_t>(pool_.size());
  }

  /// Point-in-time counters and latency percentiles.
  [[nodiscard]] ServiceStats snapshot() const LBB_EXCLUDES(mu_);

  /// Zeroes counters and the latency window and restarts the stats epoch.
  /// The memo cache is retained -- this is how a load test separates warm
  /// steady-state measurement from warm-up.
  void reset_stats() LBB_EXCLUDES(mu_);

 private:
  using Clock = std::chrono::steady_clock;

  /// Identity of a cached Partitioner instance (creation knobs only;
  /// n and the problem spec are per-request).
  struct PartitionerId {
    std::string algo;
    std::uint32_t alpha_q;
    std::uint32_t beta_q;
    friend bool operator<(const PartitionerId& a,
                          const PartitionerId& b) noexcept {
      if (int c = a.algo.compare(b.algo); c != 0) return c < 0;
      if (a.alpha_q != b.alpha_q) return a.alpha_q < b.alpha_q;
      return a.beta_q < b.beta_q;
    }
  };

  /// The pool task of one accepted request, which leads its batch: a
  /// start section, the compute, a finish section that settle()s the
  /// batch, then publish() for every request in it.  noexcept: an
  /// exception would otherwise leave the batch pending and resurface from
  /// stop().
  void handle(PartitionRequest* req) noexcept;
  [[nodiscard]] std::shared_ptr<const PartitionResult> compute(
      const core::PartitionCacheKey& key);
  [[nodiscard]] const core::Partitioner& partitioner_for(
      const core::PartitionCacheKey& key) LBB_EXCLUDES(part_mu_);
  /// Ends the batch `leader` leads.  A leader's pending key is retired
  /// first -- cached when `result` is set and cache_capacity > 0, dropped
  /// otherwise -- so nothing more joins; then every request in the batch
  /// is accounted and gets its reply fields for `status`, or for
  /// kCancelled if it was cancelled while its batch computed.
  void settle(PartitionRequest* leader, ServiceStatus status,
              const std::shared_ptr<const PartitionResult>& result,
              const std::string& error) LBB_REQUIRES(mu_);
  /// Counts one completion and, for kOk, its latency sample.
  void account(ServiceStatus status, double latency_ns) LBB_REQUIRES(mu_);
  /// The terminal-state store that releases wait(), once the request's
  /// reply fields are written.  Runs without mu_.
  static void publish(PartitionRequest* req, ServiceStatus status) noexcept;

  ServiceConfig config_;

  mutable core::Mutex mu_;
  /// Accepted requests whose task has not yet entered its start section;
  /// bounded by config_.queue_capacity.  Hits and requests that joined a
  /// batch at admission never count here.
  std::int32_t queued_ LBB_GUARDED_BY(mu_) = 0;
  bool stop_ LBB_GUARDED_BY(mu_) = false;

  /// A key's one table entry.  Pending: `result` is null and `leader`'s
  /// task will compute the key for its batch.  Cached: `result` plus its
  /// position in the clock ring (so a hit can set the referenced bit
  /// without a second lookup).
  struct CacheEntry {
    std::shared_ptr<const PartitionResult> result;
    std::size_t slot = 0;
    PartitionRequest* leader = nullptr;
  };
  /// One clock-ring slot; the ring holds exactly the cached keys, in
  /// insertion order, and clock_hand_ sweeps it for second-chance victims.
  struct ClockSlot {
    core::PartitionCacheKey key;
    bool referenced = false;
  };

  std::unordered_map<core::PartitionCacheKey, CacheEntry,
                     core::PartitionCacheKeyHash>
      cache_ LBB_GUARDED_BY(mu_);
  std::vector<ClockSlot> clock_ LBB_GUARDED_BY(mu_);
  std::size_t clock_hand_ LBB_GUARDED_BY(mu_) = 0;

  // Counters (under mu_; account() folds latency in the same critical
  // section so percentiles and counts never disagree).
  stats::PercentileReservoir latency_ LBB_GUARDED_BY(mu_);
  ServiceStats counters_ LBB_GUARDED_BY(mu_);
  Clock::time_point epoch_ LBB_GUARDED_BY(mu_);

  // Worker-side allocation attribution (atomic: measured outside mu_).
  std::atomic<std::int64_t> alloc_count_{0};
  std::atomic<std::int64_t> alloc_bytes_{0};

  core::Mutex part_mu_;
  std::map<PartitionerId, std::unique_ptr<core::Partitioner>> partitioners_
      LBB_GUARDED_BY(part_mu_);

  /// Runs one task per accepted request.  Private: a served par:* request
  /// calls parallel_for_chunks on a shared pool, which refuses to run on
  /// that pool's own workers.  The last member, so its threads are joined
  /// before anything its tasks touch is destroyed.
  runtime::ThreadPool pool_;
};

}  // namespace lbb::service

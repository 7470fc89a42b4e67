#include "service/partition_service.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/problem.hpp"
#include "core/workspace.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "runtime/par_partitioners.hpp"
#include "stats/alloc_stats.hpp"

namespace lbb::service {

namespace {

/// Latency samples behind snapshot()'s percentiles (the most recent).
constexpr std::size_t kLatencyWindow = std::size_t{1} << 14;

constexpr std::uint8_t raw(ServiceStatus status) noexcept {
  return static_cast<std::uint8_t>(status);
}

/// Nanoseconds from `start` to now.
double ns_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// `config` with its defaults resolved: workers 0 -> hardware threads.
ServiceConfig resolved(ServiceConfig config) {
  if (config.workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    config.workers = static_cast<std::int32_t>(hw > 0 ? hw : 1u);
  }
  if (config.queue_capacity < 1) config.queue_capacity = 1;
  return config;
}

/// Projects a Partition into the transport/cache record in one pass over
/// its pieces (max_weight and ratio as Partition computes them).
template <typename P>
void fill_result(PartitionResult& out, const core::Partition<P>& partition) {
  out.pieces.clear();
  out.pieces.reserve(partition.pieces.size());
  double max_weight = 0.0;
  for (const auto& piece : partition.pieces) {
    out.pieces.push_back(PieceRecord{piece.weight, piece.processor,
                                     piece.depth});
    max_weight = std::max(max_weight, piece.weight);
  }
  if (partition.pieces.empty() || partition.total_weight <= 0.0) {
    throw std::logic_error("Partition::ratio on empty partition");
  }
  out.total_weight = partition.total_weight;
  out.processors = partition.processors;
  out.bisections = partition.bisections;
  out.max_depth = partition.max_depth;
  out.max_weight = max_weight;
  out.ratio = max_weight / (partition.total_weight /
                            static_cast<double>(partition.processors));
}

}  // namespace

std::string_view to_string(ServiceStatus status) noexcept {
  switch (status) {
    case ServiceStatus::kPending:
      return "pending";
    case ServiceStatus::kOk:
      return "ok";
    case ServiceStatus::kRejected:
      return "rejected";
    case ServiceStatus::kCancelled:
      return "cancelled";
    case ServiceStatus::kShutdown:
      return "shutdown";
    case ServiceStatus::kError:
      return "error";
  }
  return "unknown";
}

void PartitionRequest::set_deadline_after(double seconds) {
  if (seconds <= 0.0) {
    has_deadline_ = false;
    return;
  }
  deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  has_deadline_ = true;
}

ServiceStatus PartitionRequest::wait() noexcept {
  std::uint8_t state = state_.load();
  while (state == raw(ServiceStatus::kPending)) {
    state_.wait(state);
    state = state_.load();
  }
  return static_cast<ServiceStatus>(state);
}

PartitionService::PartitionService(ServiceConfig config)
    : config_(resolved(config)),
      pool_(static_cast<unsigned>(config_.workers)) {
  // A service answers for every registered family, so make sure the
  // runtime's par:* hook has run (idempotent; the sim families register
  // from the experiments layer, which embedders pull in as needed).
  runtime::register_par_partitioners();
  // Preallocate everything the warm serving path touches: the in-flight
  // table (never deeper than the worker count), the latency window, and
  // the cache's bucket array.
  core::MutexLock lock(mu_);
  inflight_.reserve(static_cast<std::size_t>(config_.workers));
  latency_ = stats::PercentileReservoir(kLatencyWindow);
  cache_.reserve(config_.cache_capacity);
  clock_.reserve(config_.cache_capacity);
  epoch_ = Clock::now();
  counters_.workers = config_.workers;
}

PartitionService::~PartitionService() { stop(); }

bool PartitionService::try_submit(PartitionRequest& req) {
  // Canonicalize first: malformed specs throw before anything is queued.
  // The band bound mirrors AlphaDistribution::uniform (0 < lo <= hi <= 1/2),
  // and the key refuses a band whose canonical lower end rounds to 0.  An
  // out-of-range alpha or beta still passes and completes kError in compute.
  if (!(req.spec.alpha_lo > 0.0) || !(req.spec.alpha_lo <= req.spec.alpha_hi) ||
      !(req.spec.alpha_hi <= 0.5)) {
    throw std::invalid_argument(
        "PartitionService: alpha band must satisfy 0 < lo <= hi <= 1/2");
  }
  req.key_ = core::make_synthetic_cache_key(
      req.spec.algo, req.spec.problem_seed, req.spec.n, req.spec.alpha_lo,
      req.spec.alpha_hi, req.spec.alpha, req.spec.beta);
  req.result_.reset();
  req.error_.clear();
  req.batch_next_ = nullptr;
  req.from_cache_ = false;
  req.latency_ns_ = 0.0;
  req.enqueue_ = Clock::now();
  req.state_.store(raw(ServiceStatus::kPending));

  ServiceStatus refusal = ServiceStatus::kRejected;
  std::shared_ptr<const PartitionResult> hit;
  double hit_latency_ns = 0.0;
  {
    core::MutexLock lock(mu_);
    if (!stop_ && !req.bypass_cache && !req.cancelled_at(req.enqueue_)) {
      hit = cache_lookup(req.key_);
    }
    if (hit != nullptr) {
      // Answered at admission: no task, no queued_ slot, no worker
      // wake-up.  dispatch() looks keys up again, for those cached while
      // their request waited in the queue.
      ++counters_.submitted;
      hit_latency_ns = ns_since(req.enqueue_);
      account(ServiceStatus::kOk, Outcome::kHit, hit_latency_ns);
    } else if (stop_) {
      refusal = ServiceStatus::kShutdown;
      ++counters_.shutdown_drained;
    } else if (queued_ < config_.queue_capacity) {
      // Enqueued under mu_, so stop() cannot set stop_ between admission
      // and enqueue: every accepted request reaches handle(), and stop()'s
      // wait for the idle pool covers it.  Lock order: mu_, then the
      // pool's mutex (the pool runs no task while holding it).
      try {
        pool_.submit([this, r = &req] { handle(r); });
        ++queued_;
        ++counters_.submitted;
        refusal = ServiceStatus::kPending;
      } catch (...) {
        // The pool could not grow its queue: refuse the request rather
        // than leave it pending.
        ++counters_.rejected;
      }
    } else {
      ++counters_.rejected;
    }
  }
  if (hit != nullptr) {
    publish(&req, ServiceStatus::kOk, std::move(hit), Outcome::kHit,
            hit_latency_ns);
    return true;
  }
  if (refusal != ServiceStatus::kPending) {
    req.state_.store(raw(refusal));
    req.state_.notify_all();
    return false;
  }
  return true;
}

void PartitionService::submit(PartitionRequest& req) {
  if (!try_submit(req)) {
    if (req.status() == ServiceStatus::kShutdown) {
      throw AdmissionError(ServiceStatus::kShutdown,
                           "PartitionService: service is stopped");
    }
    throw AdmissionError(ServiceStatus::kRejected,
                         "PartitionService: request queue full");
  }
}

std::shared_ptr<const PartitionResult> PartitionService::call(
    const RequestSpec& spec) {
  PartitionRequest req;
  req.spec = spec;
  submit(req);
  const ServiceStatus status = req.wait();
  if (status != ServiceStatus::kOk) {
    std::string what = "PartitionService::call failed: ";
    what += to_string(status);
    if (!req.error_message().empty()) {
      what += ": ";
      what += req.error_message();
    }
    throw std::runtime_error(what);
  }
  return req.result();
}

void PartitionService::stop() {
  {
    core::MutexLock lock(mu_);
    stop_ = true;
  }
  // Every accepted request is terminal already (a hit answered at
  // admission) or has its task on the pool; the tasks that start from here
  // on complete with kShutdown, so an idle pool means every accepted
  // request is terminal.
  pool_.wait_idle();
}

void PartitionService::handle(PartitionRequest* req) noexcept {
  // Attribute this worker's heap traffic to the request it served.  A hit
  // found here (its key was cached while the request waited) must
  // contribute zero; misses pay for the cached result and its cache node,
  // which is the cold path by definition.
  const stats::AllocStats before = stats::alloc_stats();
  dispatch(req);
  const stats::AllocStats delta = stats::alloc_stats() - before;
  if (delta.count != 0) {
    alloc_count_ += delta.count;
    alloc_bytes_ += delta.bytes;
  }
}

void PartitionService::dispatch(PartitionRequest* req) {
  const auto now = Clock::now();
  // The batch this request leads if it computes: on this task's stack,
  // reachable by other tasks only through inflight_ under mu_, and
  // unregistered by compute_batch before this frame unwinds.
  Batch batch{req->key_, req};
  req->batch_next_ = nullptr;
  const bool share = !req->bypass_cache;
  ServiceStatus early = ServiceStatus::kPending;  // terminal without compute
  std::shared_ptr<const PartitionResult> hit;
  bool attached = false;
  {
    core::MutexLock lock(mu_);
    --queued_;  // the task has started
    if (stop_) {
      early = ServiceStatus::kShutdown;
    } else if (req->cancelled_at(now)) {
      early = ServiceStatus::kCancelled;
    } else if (share) {
      hit = cache_lookup(req->key_);
      if (hit == nullptr) {
        // Single-flight: a same-key compute already running absorbs this
        // request; the computing task completes it with the shared result.
        for (Batch* running : inflight_) {
          if (running->key == req->key_) {
            req->batch_next_ = running->head;
            running->head = req;
            attached = true;
            // Counted at attach (not completion) so the batcher's effect
            // is observable while the batch is still computing.
            ++counters_.coalesced;
            break;
          }
        }
        // Register in the critical section that found the miss, so a
        // second task missing the same key attaches here instead of
        // computing it again.
        if (!attached) inflight_.push_back(&batch);
      }
    }
  }
  if (early != ServiceStatus::kPending) {
    complete(req, early, nullptr, Outcome::kNone);
  } else if (hit != nullptr) {
    complete(req, ServiceStatus::kOk, std::move(hit), Outcome::kHit);
  } else if (!attached) {
    compute_batch(req, batch, share);
  }
}

void PartitionService::compute_batch(PartitionRequest* root, Batch& batch,
                                     bool share) {
  std::shared_ptr<const PartitionResult> result;
  ServiceStatus status = ServiceStatus::kOk;
  std::string error;
  try {
    result = compute(batch.key);
  } catch (const std::exception& e) {
    status = ServiceStatus::kError;
    error = e.what();
  }

  PartitionRequest* head = nullptr;
  {
    core::MutexLock lock(mu_);
    if (share) {
      inflight_.erase(
          std::remove(inflight_.begin(), inflight_.end(), &batch),
          inflight_.end());
    }
    // After unregistration nothing new can attach; the head is final.
    head = batch.head;
    if (share && status == ServiceStatus::kOk &&
        cache_.find(batch.key) == cache_.end()) {
      // (The find() is defensive: single-flight leaves no other shared
      // compute of this key that could have cached it meanwhile.)
      if (cache_.size() < config_.cache_capacity) {
        const std::size_t slot = clock_.size();
        clock_.push_back(ClockSlot{batch.key, false});
        cache_.emplace(batch.key, CacheEntry{result, slot});
      } else if (!clock_.empty()) {
        // Second-chance (clock) eviction: sweep the hand, giving each
        // referenced entry one more pass, and replace the first cold one.
        // Terminates within two passes (the first clears every bit).  The
        // victim's bytes are recoverable by recomputing its canonical key,
        // so eviction never perturbs served results -- only hit counts.
        while (clock_[clock_hand_].referenced) {
          clock_[clock_hand_].referenced = false;
          clock_hand_ = (clock_hand_ + 1) % clock_.size();
        }
        cache_.erase(clock_[clock_hand_].key);
        ++counters_.cache_evictions;
        clock_[clock_hand_] = ClockSlot{batch.key, false};
        cache_.emplace(batch.key, CacheEntry{result, clock_hand_});
        clock_hand_ = (clock_hand_ + 1) % clock_.size();
      }
    }
    counters_.cache_entries = static_cast<std::int64_t>(cache_.size());
  }

  const auto now = Clock::now();
  for (PartitionRequest* req = head; req != nullptr;) {
    PartitionRequest* next = req->batch_next_;
    req->batch_next_ = nullptr;
    const Outcome outcome =
        req == root ? (share ? Outcome::kMiss : Outcome::kBypass)
                    : Outcome::kCoalesced;
    if (status != ServiceStatus::kOk) {
      req->error_ = error;
      complete(req, ServiceStatus::kError, nullptr, outcome);
    } else if (req->cancelled_at(now)) {
      // Cancelled while the batch computed: the requester gets kCancelled,
      // but the computed value is still correct for the key and stays
      // cached -- cancellation never poisons the cache.
      complete(req, ServiceStatus::kCancelled, nullptr, outcome);
    } else {
      complete(req, ServiceStatus::kOk, result, outcome);
    }
    req = next;
  }
}

std::shared_ptr<const PartitionResult> PartitionService::compute(
    const core::PartitionCacheKey& key) {
  // One workspace per pool thread, recycled across the requests it serves.
  thread_local core::TrialWorkspace<problems::SyntheticProblem> ws;
  const core::Partitioner& part = partitioner_for(key);
  // Everything below derives from the CANONICAL key -- dequantized band,
  // key-derived RunContext seed -- so every compute of a key is
  // byte-identical to every other, which is what makes the memo cache
  // transparent (asserted by the `service` byte-identity tests).
  core::RunContext ctx(key.run_seed());
  problems::SyntheticProblem problem(
      key.problem_seed,
      problems::AlphaDistribution::uniform(key.alpha_lo(), key.alpha_hi()));
  auto result = std::make_shared<PartitionResult>();
  auto typed = core::try_typed_partition(part, ctx, ws, problem, key.n);
  if (typed.has_value()) {
    fill_result(*result, *typed);
    ws.recycle(std::move(*typed));
  } else {
    auto erased = part.run(ctx, core::AnyProblem(problem), key.n);
    fill_result(*result, erased);
  }
  return result;
}

const core::Partitioner& PartitionService::partitioner_for(
    const core::PartitionCacheKey& key) {
  PartitionerId id{std::string(key.algo_name()), key.alpha_q, key.beta_q};
  {
    core::MutexLock lock(part_mu_);
    auto it = partitioners_.find(id);
    // Entries are never erased while the service lives, so the reference
    // outlives the lock.
    if (it != partitioners_.end()) return *it->second;
  }
  core::PartitionerConfig config;
  config.alpha = key.alpha();
  config.beta = key.beta();
  // A served par:* request runs on one thread; the pool's workers are the
  // service's parallelism.
  config.threads = 1;
  std::unique_ptr<core::Partitioner> created =
      core::PartitionerRegistry::instance().create(key.algo_name(), config);
  core::MutexLock lock(part_mu_);
  // emplace keeps an entry another worker raced in; the duplicate instance
  // is discarded (partitioners are stateless, either is correct).
  auto it = partitioners_.emplace(std::move(id), std::move(created)).first;
  return *it->second;
}

std::shared_ptr<const PartitionResult> PartitionService::cache_lookup(
    const core::PartitionCacheKey& key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) return nullptr;
  // Second chance: a hit entry survives the next sweep pass.
  clock_[it->second.slot].referenced = true;
  return it->second.result;
}

void PartitionService::complete(PartitionRequest* req, ServiceStatus status,
                                std::shared_ptr<const PartitionResult> result,
                                Outcome outcome) {
  const double latency_ns = ns_since(req->enqueue_);
  {
    core::MutexLock lock(mu_);
    account(status, outcome, latency_ns);
  }
  publish(req, status, std::move(result), outcome, latency_ns);
}

void PartitionService::account(ServiceStatus status, Outcome outcome,
                               double latency_ns) {
  ++counters_.completed;
  switch (status) {
    case ServiceStatus::kOk:
      ++counters_.served_ok;
      latency_.record(latency_ns);
      break;
    case ServiceStatus::kCancelled:
      ++counters_.cancelled;
      break;
    case ServiceStatus::kShutdown:
      ++counters_.shutdown_drained;
      break;
    case ServiceStatus::kError:
      ++counters_.errors;
      break;
    default:
      break;
  }
  switch (outcome) {
    case Outcome::kHit:
      ++counters_.cache_hits;
      break;
    case Outcome::kMiss:
      ++counters_.cache_misses;
      break;
    case Outcome::kCoalesced:
      break;  // counted when the request attached to the batch
    case Outcome::kBypass:
      ++counters_.bypassed;
      break;
    case Outcome::kNone:
      break;
  }
}

void PartitionService::publish(PartitionRequest* req, ServiceStatus status,
                               std::shared_ptr<const PartitionResult> result,
                               Outcome outcome, double latency_ns) noexcept {
  req->latency_ns_ = latency_ns;
  req->from_cache_ =
      outcome == Outcome::kHit || outcome == Outcome::kCoalesced;
  req->result_ = std::move(result);
  // The terminal-state store is the caller's release point: every field
  // above must be written first.  All atomics here are seq_cst (project
  // memory-order contract).
  req->state_.store(raw(status));
  req->state_.notify_all();
}

ServiceStats PartitionService::snapshot() const {
  ServiceStats out;
  {
    core::MutexLock lock(mu_);
    out = counters_;
    out.latency_samples = latency_.count();
    out.p50_ms = latency_.quantile(0.50) / 1e6;
    out.p95_ms = latency_.quantile(0.95) / 1e6;
    out.p99_ms = latency_.quantile(0.99) / 1e6;
    out.elapsed_seconds =
        std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  out.alloc_count = alloc_count_.load();
  out.alloc_bytes = alloc_bytes_.load();
  out.partitions_per_sec =
      out.elapsed_seconds > 0.0
          ? static_cast<double>(out.served_ok) / out.elapsed_seconds
          : 0.0;
  return out;
}

void PartitionService::reset_stats() {
  core::MutexLock lock(mu_);
  const std::int64_t entries = counters_.cache_entries;
  counters_ = ServiceStats{};
  counters_.workers = config_.workers;
  counters_.cache_entries = entries;
  latency_.reset();
  epoch_ = Clock::now();
  alloc_count_.store(0);
  alloc_bytes_.store(0);
}

}  // namespace lbb::service

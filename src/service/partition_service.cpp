#include "service/partition_service.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "core/problem.hpp"
#include "problems/alpha_dist.hpp"
#include "runtime/par_partitioners.hpp"
#include "stats/alloc_stats.hpp"

namespace lbb::service {

namespace {

constexpr std::uint8_t raw(ServiceStatus status) noexcept {
  return static_cast<std::uint8_t>(status);
}

/// Projects a Partition into the transport/cache record.
template <typename P>
void fill_result(PartitionResult& out, const core::Partition<P>& partition) {
  out.pieces.clear();
  out.pieces.reserve(partition.pieces.size());
  for (const auto& piece : partition.pieces) {
    out.pieces.push_back(PieceRecord{piece.weight, piece.processor,
                                     piece.depth});
  }
  out.total_weight = partition.total_weight;
  out.processors = partition.processors;
  out.bisections = partition.bisections;
  out.max_depth = partition.max_depth;
  out.max_weight = partition.max_weight();
  out.ratio = partition.ratio();
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
    : config_(config) {
  // A service answers for every registered family, so make sure the
  // runtime's par:* hook has run (idempotent; the sim families register
  // from the experiments layer, which embedders pull in as needed).
  runtime::register_par_partitioners();
  if (config_.workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    config_.workers = static_cast<std::int32_t>(hw > 0 ? hw : 1u);
  }
  if (config_.queue_capacity < 1) config_.queue_capacity = 1;
  if (config_.latency_window == 0) config_.latency_window = 1;

  {
    // Preallocate everything the warm serving path touches: the ring, the
    // in-flight table (never deeper than the worker count), the latency
    // window, and the cache's bucket array.
    core::MutexLock lock(mu_);
    ring_.resize(static_cast<std::size_t>(config_.queue_capacity), nullptr);
    inflight_.reserve(static_cast<std::size_t>(config_.workers));
    latency_ = stats::PercentileReservoir(config_.latency_window);
    if (config_.cache_enabled) {
      cache_.reserve(config_.cache_capacity);
      clock_.reserve(config_.cache_capacity);
    }
    epoch_ = Clock::now();
    counters_.workers = config_.workers;
  }

  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (std::int32_t i = 0; i < config_.workers; ++i) {
    workers_.push_back(std::make_unique<WorkerState>());
  }
  // Started only after every WorkerState exists: workers_ is immutable from
  // here on, so worker threads may read it without mu_.
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, state = worker.get()] {
      worker_loop(*state);
    });
  }
}

PartitionService::~PartitionService() { stop(); }

bool PartitionService::try_submit(PartitionRequest& req) {
  // Canonicalize first: malformed specs throw before anything is queued.
  // The band bound mirrors AlphaDistribution::uniform (0 < lo <= hi <= 1/2)
  // so a queued request can only fail for server-side reasons.
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
  {
    core::MutexLock lock(mu_);
    if (stop_) {
      refusal = ServiceStatus::kShutdown;
      ++counters_.shutdown_drained;
    } else if (queue_size_ == ring_.size()) {
      ++counters_.rejected;
    } else {
      ring_[(queue_head_ + queue_size_) % ring_.size()] = &req;
      ++queue_size_;
      ++counters_.submitted;
      refusal = ServiceStatus::kPending;
    }
  }
  if (refusal != ServiceStatus::kPending) {
    req.state_.store(raw(refusal));
    req.state_.notify_all();
    return false;
  }
  queue_cv_.notify_one();
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
  std::vector<PartitionRequest*> drained;
  {
    core::MutexLock lock(mu_);
    if (!stop_) {
      stop_ = true;
      drained.reserve(queue_size_);
      while (queue_size_ > 0) drained.push_back(pop_locked());
    }
  }
  queue_cv_.notify_all();
  for (PartitionRequest* req : drained) {
    complete(req, ServiceStatus::kShutdown, nullptr, Outcome::kNone);
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

PartitionRequest* PartitionService::pop_locked() {
  PartitionRequest* req = ring_[queue_head_];
  ring_[queue_head_] = nullptr;
  queue_head_ = (queue_head_ + 1) % ring_.size();
  --queue_size_;
  return req;
}

void PartitionService::worker_loop(WorkerState& self) {
  for (;;) {
    PartitionRequest* req = nullptr;
    {
      core::CvLock lock(mu_);
      lock.wait(queue_cv_, [this]() LBB_REQUIRES(mu_) {
        return stop_ || queue_size_ > 0;
      });
      if (queue_size_ == 0) return;  // stop_ set and queue drained
      req = pop_locked();
    }
    handle(self, req);
  }
}

void PartitionService::handle(WorkerState& self, PartitionRequest* req) {
  // Attribute this worker's heap traffic to the request it served.  Warm
  // cache hits must contribute zero (the perf alloc gate pins this);
  // misses pay for the cached result and its cache node, which is the
  // cold path by definition.
  const stats::AllocStats before = stats::alloc_stats();
  dispatch(self, req);
  const stats::AllocStats delta = stats::alloc_stats() - before;
  if (delta.count != 0) {
    alloc_count_ += delta.count;
    alloc_bytes_ += delta.bytes;
  }
}

void PartitionService::dispatch(WorkerState& self, PartitionRequest* req) {
  const auto now = Clock::now();
  if ((req->cancel != nullptr && req->cancel->cancelled()) ||
      (req->has_deadline_ && now > req->deadline_)) {
    complete(req, ServiceStatus::kCancelled, nullptr, Outcome::kNone);
    return;
  }
  // The batch this request leads if it computes: on this worker's stack,
  // reachable by other workers only through inflight_ under mu_, and
  // unregistered by compute_batch before this frame unwinds.
  Batch batch{req->key_, req};
  req->batch_next_ = nullptr;
  const bool share = !req->bypass_cache;
  if (share) {
    std::shared_ptr<const PartitionResult> hit;
    bool attached = false;
    {
      core::MutexLock lock(mu_);
      if (config_.cache_enabled) {
        auto it = cache_.find(req->key_);
        if (it != cache_.end()) {
          hit = it->second.result;
          // Second chance: a hit entry survives the next sweep pass.
          clock_[it->second.slot].referenced = true;
        }
      }
      if (hit == nullptr) {
        // Single-flight: a same-key compute already running absorbs this
        // request; the computing worker completes it with the shared
        // result.
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
      }
      if (hit == nullptr && !attached) {
        // Register in the critical section that found the miss, so a
        // second worker missing the same key attaches here instead of
        // computing it again.
        inflight_.push_back(&batch);
      }
    }
    if (hit != nullptr) {
      complete(req, ServiceStatus::kOk, std::move(hit), Outcome::kHit);
      return;
    }
    if (attached) return;
  }
  compute_batch(self, req, batch, share);
}

void PartitionService::compute_batch(WorkerState& self, PartitionRequest* root,
                                     Batch& batch, bool share) {
  std::shared_ptr<const PartitionResult> result;
  ServiceStatus status = ServiceStatus::kOk;
  std::string error;
  try {
    result = compute(self, batch.key);
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
    if (share && status == ServiceStatus::kOk && config_.cache_enabled &&
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
    } else if ((req->cancel != nullptr && req->cancel->cancelled()) ||
               (req->has_deadline_ && now > req->deadline_)) {
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
    WorkerState& self, const core::PartitionCacheKey& key) {
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
  auto typed = core::try_typed_partition(part, ctx, self.ws,
                                         problem, key.n);
  if (typed.has_value()) {
    fill_result(*result, *typed);
    self.ws.recycle(std::move(*typed));
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
  config.threads = config_.partitioner_threads;
  std::unique_ptr<core::Partitioner> created =
      core::PartitionerRegistry::instance().create(key.algo_name(), config);
  core::MutexLock lock(part_mu_);
  // emplace keeps an entry another worker raced in; the duplicate instance
  // is discarded (partitioners are stateless, either is correct).
  auto it = partitioners_.emplace(std::move(id), std::move(created)).first;
  return *it->second;
}

void PartitionService::complete(PartitionRequest* req, ServiceStatus status,
                                std::shared_ptr<const PartitionResult> result,
                                Outcome outcome) {
  const double latency_ns = std::chrono::duration<double, std::nano>(
                                Clock::now() - req->enqueue_)
                                .count();
  {
    core::MutexLock lock(mu_);
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
  counters_.workers = static_cast<std::int32_t>(workers_.size());
  counters_.cache_entries = entries;
  latency_.reset();
  epoch_ = Clock::now();
  alloc_count_.store(0);
  alloc_bytes_.store(0);
}

}  // namespace lbb::service

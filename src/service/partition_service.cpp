#include "service/partition_service.hpp"

#include <algorithm>
#include <cmath>
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
  if (std::isnan(seconds)) {
    throw std::invalid_argument("PartitionRequest: deadline is NaN");
  }
  has_deadline_ = seconds > 0.0;
  if (!has_deadline_) return;
  // Converting a delay to integer ticks is defined only below the largest
  // tick count, and adding it to now only within the ticks the clock has
  // left; a later deadline (+inf included) is the clock's last tick, which
  // never passes.
  const auto now = Clock::now();
  const std::chrono::duration<double, Clock::period> delay =
      std::chrono::duration<double>(seconds);
  deadline_ = Clock::time_point::max();
  if (delay.count() < static_cast<double>(Clock::duration::max().count())) {
    const auto ticks = std::chrono::duration_cast<Clock::duration>(delay);
    if (ticks < Clock::time_point::max() - now) deadline_ = now + ticks;
  }
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
  // Preallocate everything the warm serving path touches: the latency
  // window and the key table's buckets, for every cached key plus one
  // pending key per queued or running task, so it never rehashes.
  core::MutexLock lock(mu_);
  latency_ = stats::PercentileReservoir(kLatencyWindow);
  cache_.reserve(config_.cache_capacity +
                 static_cast<std::size_t>(config_.queue_capacity) +
                 static_cast<std::size_t>(config_.workers));
  clock_.reserve(config_.cache_capacity);
  epoch_ = Clock::now();
  counters_.workers = config_.workers;
}

PartitionService::~PartitionService() { stop(); }

bool PartitionService::try_submit(PartitionRequest& req) {
  // Canonicalize first: malformed specs throw before anything is queued.
  // The band bound mirrors AlphaDistribution::uniform (0 < lo <= hi <= 1/2);
  // the key also refuses a band whose canonical lower end rounds to 0 and
  // canonical partitioner parameters outside their range.
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
  const bool keyed = !req.bypass_cache && !req.cancelled_at(req.enqueue_);

  ServiceStatus status = ServiceStatus::kPending;
  {
    core::MutexLock lock(mu_);
    const auto entry = keyed && !stop_ ? cache_.find(req.key_) : cache_.end();
    if (stop_) {
      status = ServiceStatus::kShutdown;
      ++counters_.shutdown_drained;
    } else if (entry != cache_.end() && entry->second.result != nullptr) {
      // Cached: answered here, with no task, no queued_ slot and no worker
      // wake-up.  Second chance: a hit entry survives the next sweep pass.
      clock_[entry->second.slot].referenced = true;
      req.result_ = entry->second.result;
      req.from_cache_ = true;
      req.latency_ns_ = ns_since(req.enqueue_);
      status = ServiceStatus::kOk;
      ++counters_.submitted;
      ++counters_.cache_hits;
      account(status, req.latency_ns_);
    } else if (entry != cache_.end()) {
      // Pending: the key's leader computes it once for its whole batch, so
      // the request joins that batch and takes no task and no slot.
      PartitionRequest* leader = entry->second.leader;
      req.batch_next_ = leader->batch_next_;
      leader->batch_next_ = &req;
      ++counters_.submitted;
      ++counters_.coalesced;
    } else if (queued_ < config_.queue_capacity) {
      // Enqueued under mu_, so stop() cannot set stop_ between admission
      // and enqueue: every accepted request reaches handle(), and stop()'s
      // wait for the idle pool covers it.  Lock order: mu_, then the
      // pool's mutex (the pool runs no task while holding it).
      req.leads_ = keyed;
      try {
        if (keyed) cache_.emplace(req.key_, CacheEntry{nullptr, 0, &req});
        pool_.submit([this, r = &req] { handle(r); });
        ++queued_;
        ++counters_.submitted;
      } catch (...) {
        // The table or the pool could not grow: refuse the request rather
        // than leave it pending.
        if (keyed) cache_.erase(req.key_);
        status = ServiceStatus::kRejected;
        ++counters_.rejected;
      }
    } else {
      status = ServiceStatus::kRejected;
      ++counters_.rejected;
    }
  }
  if (status != ServiceStatus::kPending) publish(&req, status);
  return status == ServiceStatus::kPending || status == ServiceStatus::kOk;
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
  // admission) or belongs to the batch of a task on the pool; the tasks
  // that start from here on complete their batches with kShutdown, so an
  // idle pool means every accepted request is terminal.
  pool_.wait_idle();
}

void PartitionService::handle(PartitionRequest* req) noexcept {
  // Attribute this worker's heap traffic to the batch it served: a compute
  // pays for the cached result, which is the cold path by definition.
  const stats::AllocStats before = stats::alloc_stats();
  ServiceStatus status = ServiceStatus::kOk;
  {
    core::MutexLock lock(mu_);
    --queued_;  // the task has started
    if (stop_) {
      status = ServiceStatus::kShutdown;
    } else {
      // A batch computes only for a request still waiting for the answer.
      const auto now = Clock::now();
      status = ServiceStatus::kCancelled;
      for (PartitionRequest* r = req; r != nullptr; r = r->batch_next_) {
        if (!r->cancelled_at(now)) {
          status = ServiceStatus::kOk;
          break;
        }
      }
    }
    if (status != ServiceStatus::kOk) settle(req, status, nullptr, {});
  }
  if (status == ServiceStatus::kOk) {
    std::shared_ptr<const PartitionResult> result;
    std::string error;
    try {
      result = compute(req->key_);
    } catch (const std::exception& e) {
      status = ServiceStatus::kError;
      error = e.what();
    }
    core::MutexLock lock(mu_);
    settle(req, status, result, error);
  }
  // settle() retired the key, so the batch is final.  Every request in it
  // that was not served ends as the batch did, or kCancelled when the
  // batch computed.
  const ServiceStatus unserved =
      status == ServiceStatus::kOk ? ServiceStatus::kCancelled : status;
  for (PartitionRequest* r = req; r != nullptr;) {
    PartitionRequest* next = r->batch_next_;
    publish(r, r->result_ != nullptr ? ServiceStatus::kOk : unserved);
    r = next;
  }
  const stats::AllocStats delta = stats::alloc_stats() - before;
  if (delta.count != 0) {
    alloc_count_ += delta.count;
    alloc_bytes_ += delta.bytes;
  }
}

void PartitionService::settle(
    PartitionRequest* leader, ServiceStatus status,
    const std::shared_ptr<const PartitionResult>& result,
    const std::string& error) {
  if (leader->leads_) {
    const auto entry = cache_.find(leader->key_);
    if (result == nullptr || config_.cache_capacity == 0) {
      cache_.erase(entry);  // errors and uncomputed keys are never cached
    } else if (clock_.size() < config_.cache_capacity) {
      entry->second = CacheEntry{result, clock_.size(), nullptr};
      clock_.push_back(ClockSlot{leader->key_, false});
    } else {
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
      clock_[clock_hand_] = ClockSlot{leader->key_, false};
      entry->second = CacheEntry{result, clock_hand_, nullptr};
      clock_hand_ = (clock_hand_ + 1) % clock_.size();
    }
    counters_.cache_entries = static_cast<std::int64_t>(clock_.size());
  }
  if (status == ServiceStatus::kOk || status == ServiceStatus::kError) {
    ++(leader->leads_ ? counters_.cache_misses : counters_.bypassed);
  }
  const auto now = Clock::now();
  for (PartitionRequest* req = leader; req != nullptr; req = req->batch_next_) {
    // Cancelled while the batch computed: the requester gets kCancelled,
    // but the computed value is still correct for the key and stays
    // cached -- cancellation never poisons the cache.
    const ServiceStatus mine =
        status == ServiceStatus::kOk && req->cancelled_at(now)
            ? ServiceStatus::kCancelled
            : status;
    req->latency_ns_ =
        std::chrono::duration<double, std::nano>(now - req->enqueue_).count();
    account(mine, req->latency_ns_);
    if (mine == ServiceStatus::kOk) {
      req->result_ = result;
      req->from_cache_ = req != leader;
    } else if (mine == ServiceStatus::kError) {
      req->error_ = error;
    }
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

void PartitionService::account(ServiceStatus status, double latency_ns) {
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
}

void PartitionService::publish(PartitionRequest* req,
                               ServiceStatus status) noexcept {
  // The terminal-state store is the caller's release point: every reply
  // field must be written first.  All atomics here are seq_cst (project
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

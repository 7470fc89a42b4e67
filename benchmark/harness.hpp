// Shared plumbing of the benchmark harness: timing, sample statistics, the
// per-run report, and the in-memory span tracer.
//
// The harness measures the library from outside: every number is a
// steady_clock interval around a call into one layer's public functions.
// Spans exist only in the traced binary (LBB_BENCHMARK_TRACED); in the
// end-to-end binary they compile to nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace lbb::perf {

#if defined(LBB_BENCHMARK_TRACED)
inline constexpr bool kTraced = true;
#else
inline constexpr bool kTraced = false;
#endif

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_between(std::int64_t begin_ns,
                                            std::int64_t end_ns) noexcept {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/// Keeps `value` (and everything it depends on) alive through the
/// optimizer without costing a store.
template <typename T>
inline void keep(const T& value) noexcept {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Linearly interpolated q-quantile (q in [0, 1]); the median of an even
/// count averages the two middle samples.  NaN for an empty sample, which
/// Report::metric turns into a failed check.
[[nodiscard]] double quantile(std::vector<double> sample, double q);
[[nodiscard]] inline double median(std::vector<double> sample) {
  return quantile(std::move(sample), 0.5);
}

/// What main() hands every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured phase
  bool smoke = false;     ///< fewest repeats, every correctness check kept
  bool layers = false;    ///< also report this workload's per-layer metrics
};

/// Metrics, correctness checks and operation counts of one run, printed
/// as one JSON object for run.py.
class Report {
 public:
  /// Records a metric; a non-finite value becomes a failed check instead.
  void metric(const std::string& name, double value, const std::string& unit,
              std::int64_t samples);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] double value(const std::string& name) const;

  void check(const std::string& name, bool ok, const std::string& detail = {});
  /// Adds `attempted` operations of which `failed` did not succeed.
  void count(std::int64_t attempted, std::int64_t failed);
  void info(const std::string& key, const std::string& value);

  /// Copies the metrics of `other` that this report lacks, plus all of its
  /// checks (not its operation counts).
  void absorb(const Report& other);

  [[nodiscard]] bool correct() const;
  void write_json(std::ostream& os) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::int64_t samples = 0;
  };
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<Check> checks_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::map<std::string, std::string> info_;
};

/// Process-wide span recorder: a preallocated event buffer filled with one
/// atomic increment per span and written as Chrome trace-event JSON (opens
/// in Perfetto or chrome://tracing) when the run ends.  Events past the
/// capacity are dropped and counted.
class Tracer {
 public:
  static Tracer& instance();

  /// Allocates the buffer and starts recording.
  void start(std::size_t capacity);
  /// Stops recording; recorded events are kept for write().
  void pause() noexcept { on_.store(false); }
  [[nodiscard]] bool on() const noexcept { return kTraced && on_.load(); }

  /// A span on the calling thread's track (properly nested per thread).
  void complete(const char* name, std::int64_t begin_ns, std::int64_t end_ns,
                std::int64_t arg = -1) noexcept;
  /// An async span keyed by `id`: spans sharing an id stack on one track,
  /// whichever threads recorded them.
  void async(const char* name, std::uint64_t id, std::int64_t begin_ns,
             std::int64_t end_ns) noexcept;

  [[nodiscard]] std::int64_t recorded() const noexcept;
  [[nodiscard]] std::int64_t dropped() const noexcept {
    return dropped_.load();
  }
  /// Writes the Chrome trace-event JSON; returns false on I/O failure.
  [[nodiscard]] bool write(const std::string& path,
                           const std::string& workload) const;

 private:
  struct Event {
    const char* name;
    std::int64_t begin_ns;
    std::int64_t end_ns;
    std::uint64_t id;
    std::int64_t arg;
    std::uint32_t tid;
    bool async;
  };
  void push(const Event& event) noexcept;

  std::vector<Event> events_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::int64_t> dropped_{0};
  std::atomic<bool> on_{false};
  std::int64_t epoch_ns_ = 0;
};

/// Scoped span around a call into one layer (no-op when untraced).
class Span {
 public:
  explicit Span(const char* name, std::int64_t arg = -1) noexcept {
    if constexpr (kTraced) {
      if (Tracer::instance().on()) {
        name_ = name;
        arg_ = arg;
        begin_ns_ = now_ns();
      }
    }
  }
  ~Span() {
    if constexpr (kTraced) {
      if (name_ != nullptr) {
        Tracer::instance().complete(name_, begin_ns_, now_ns(), arg_);
      }
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::int64_t begin_ns_ = 0;
  std::int64_t arg_ = -1;
};

// Workload entry points.  Each fills `report` with the end-to-end metrics
// (and, when opt.layers is set, its per-layer metrics) and its checks.
void run_mc_paper(const Options& opt, Report& report);
void run_large_n(const Options& opt, Report& report);
void run_serve(const Options& opt, bool hot, Report& report);
/// Single-layer probes that no workload measures on its own.
void run_layer_probes(const Options& opt, Report& report);

}  // namespace lbb::perf

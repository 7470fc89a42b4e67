#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "stats/json.hpp"

namespace lbb::perf {

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sample[lo] + (sample[hi] - sample[lo]) * frac;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::int64_t samples) {
  if (!std::isfinite(value)) {
    check("metric " + name, false, "not a finite number");
    return;
  }
  metrics_[name] = Metric{value, unit, samples};
}

bool Report::has(const std::string& name) const {
  return metrics_.count(name) != 0;
}

double Report::value(const std::string& name) const {
  const auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    throw std::out_of_range("Report::value: no metric " + name);
  }
  return it->second.value;
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(Check{name, ok, detail});
}

void Report::count(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::info(const std::string& key, const std::string& value) {
  info_[key] = value;
}

void Report::absorb(const Report& other) {
  for (const auto& [name, m] : other.metrics_) {
    if (!has(name)) metrics_[name] = m;
  }
  checks_.insert(checks_.end(), other.checks_.begin(), other.checks_.end());
}

bool Report::correct() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

void Report::write_json(std::ostream& os) const {
  stats::JsonWriter json(os);
  json.begin_object(/*inline_mode=*/true);
  json.member("correct", correct());
  json.member("attempted", attempted_);
  json.member("failed", failed_);
  json.key("metrics");
  json.begin_object(/*inline_mode=*/true);
  for (const auto& [name, m] : metrics_) {
    json.key(name);
    json.begin_object(/*inline_mode=*/true);
    json.member("value", m.value);
    json.member("unit", m.unit);
    json.member("samples", m.samples);
    json.end_object();
  }
  json.end_object();
  json.key("checks");
  json.begin_array(/*inline_mode=*/true);
  for (const Check& c : checks_) {
    json.begin_object(/*inline_mode=*/true);
    json.member("name", c.name);
    json.member("ok", c.ok);
    json.member("detail", c.detail);
    json.end_object();
  }
  json.end_array();
  json.key("info");
  json.begin_object(/*inline_mode=*/true);
  for (const auto& [key, value] : info_) json.member(key, value);
  json.end_object();
  json.end_object();
  json.finish();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::start(std::size_t capacity) {
  events_.assign(capacity, Event{});
  next_.store(0);
  dropped_.store(0);
  epoch_ns_ = now_ns();
  on_.store(capacity > 0);
}

namespace {

std::uint32_t thread_track() noexcept {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

void Tracer::push(const Event& event) noexcept {
  const std::size_t slot = next_.fetch_add(1);
  if (slot >= events_.size()) {
    dropped_.fetch_add(1);
    return;
  }
  events_[slot] = event;
}

void Tracer::complete(const char* name, std::int64_t begin_ns,
                      std::int64_t end_ns, std::int64_t arg) noexcept {
  if (!on()) return;
  push(Event{name, begin_ns, end_ns, 0, arg, thread_track(), false});
}

void Tracer::async(const char* name, std::uint64_t id, std::int64_t begin_ns,
                   std::int64_t end_ns) noexcept {
  if (!on()) return;
  push(Event{name, begin_ns, end_ns, id, -1, thread_track(), true});
}

std::int64_t Tracer::recorded() const noexcept {
  return static_cast<std::int64_t>(std::min(next_.load(), events_.size()));
}

bool Tracer::write(const std::string& path,
                   const std::string& workload) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto us = [this](std::int64_t ns) {
    return static_cast<double>(ns - epoch_ns_) * 1e-3;
  };
  const auto n = static_cast<std::size_t>(recorded());
  stats::JsonWriter json(out);
  json.begin_object();
  json.member("displayTimeUnit", "ms");
  json.key("otherData");
  json.begin_object(/*inline_mode=*/true);
  json.member("workload", workload);
  json.member("dropped_events", dropped());
  json.end_object();
  json.key("traceEvents");
  json.begin_array();
  json.begin_object(/*inline_mode=*/true);
  json.member("name", "process_name");
  json.member("ph", "M");
  json.member("pid", std::int64_t{1});
  json.key("args");
  json.begin_object(/*inline_mode=*/true);
  json.member("name", workload);
  json.end_object();
  json.end_object();
  for (std::size_t i = 0; i < n; ++i) {
    const Event& e = events_[i];
    const std::string_view name(e.name);
    const std::string cat(name.substr(0, name.find('.')));
    if (!e.async) {
      json.begin_object(/*inline_mode=*/true);
      json.member("name", name);
      json.member("cat", cat);
      json.member("ph", "X");
      json.member("ts", us(e.begin_ns));
      json.member("dur", static_cast<double>(e.end_ns - e.begin_ns) * 1e-3);
      json.member("pid", std::int64_t{1});
      json.member("tid", static_cast<std::int64_t>(e.tid));
      if (e.arg >= 0) {
        json.key("args");
        json.begin_object(/*inline_mode=*/true);
        json.member("n", e.arg);
        json.end_object();
      }
      json.end_object();
      continue;
    }
    // Nestable async begin/end pair; the request id is the track key.
    for (const char* ph : {"b", "e"}) {
      json.begin_object(/*inline_mode=*/true);
      json.member("name", name);
      json.member("cat", cat);
      json.member("ph", ph);
      json.member("id", static_cast<std::int64_t>(e.id));
      json.member("ts", us(ph[0] == 'b' ? e.begin_ns : e.end_ns));
      json.member("pid", std::int64_t{1});
      json.member("tid", static_cast<std::int64_t>(e.tid));
      if (ph[0] == 'b') {
        json.key("args");
        json.begin_object(/*inline_mode=*/true);
        json.member("request", static_cast<std::int64_t>(e.id));
        json.end_object();
      }
      json.end_object();
    }
  }
  json.end_array();
  json.end_object();
  json.finish();
  return static_cast<bool>(out);
}

}  // namespace lbb::perf

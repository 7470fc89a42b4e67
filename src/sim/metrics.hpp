// Metrics collected by the simulated parallel executions.
#pragma once

#include <cstdint>

namespace lbb::sim {

/// Time and communication accounting of one simulated run.
struct SimMetrics {
  double makespan = 0.0;  ///< simulated parallel time until load is balanced

  std::int64_t messages = 0;          ///< point-to-point problem transfers
  std::int64_t collective_ops = 0;    ///< global operations performed
  std::int64_t bisections = 0;        ///< total bisection steps

  // PHF-specific breakdown (zero for BA / BA-HF):
  double phase1_end = 0.0;            ///< time when phase 1's barrier begins
  std::int64_t phase1_bisections = 0;
  std::int64_t phase2_bisections = 0;
  std::int32_t phase2_iterations = 0;
  std::int32_t mop_up_iterations = 0;  ///< BA'-manager catch-up rounds
  std::int64_t failed_probes = 0;      ///< random-probe manager misses

  // Fault-injection accounting (zero on the ideal machine; see
  // sim/fault_model.hpp):
  std::int64_t retries = 0;           ///< message re-sends + probe retries
  std::int64_t lost_messages = 0;     ///< transfer attempts lost in flight
  std::int64_t delayed_messages = 0;  ///< transfers hit by extra latency
  double backoff_time = 0.0;  ///< total simulated timeout/backoff time

  friend bool operator==(const SimMetrics&, const SimMetrics&) = default;
};

}  // namespace lbb::sim

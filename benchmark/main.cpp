// Benchmark harness entry point (driven by benchmark/run.py).
//
//   lbb_benchmark --workload=<mc_paper|large_n|serve_hot|serve_cold>
//                 [--seed=N] [--seconds=S] [--smoke]
//   lbb_benchmark_traced ... --layers --trace-out=<path>
//
// Prints one JSON object (metrics, checks, operation counts) on stdout and
// exits nonzero when a correctness check fails.  With --layers the run also
// reports per-layer metrics: those of the chosen workload from its own
// calls, those of layers it never calls from a short run of the workload
// that does, and the single-layer probes (layers.cpp).
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "core/simd/dispatch.hpp"
#include "harness.hpp"
#include "stats/alloc_stats.hpp"

namespace {

using lbb::perf::Options;
using lbb::perf::Report;

void run_workload(const Options& opt, Report& report) {
  if (opt.workload == "mc_paper") {
    lbb::perf::run_mc_paper(opt, report);
  } else if (opt.workload == "large_n") {
    lbb::perf::run_large_n(opt, report);
  } else {
    lbb::perf::run_serve(opt, opt.workload == "serve_hot", report);
  }
}

/// Per-layer metrics of layers `report`'s workload does not call, from a
/// short run of the workload that does.
void fill_missing_layers(const Options& opt, Report& report) {
  struct Source {
    const char* marker;  ///< a metric only that workload reports
    const char* workload;
  };
  for (const Source& src :
       {Source{"experiments.engine_overhead_frac", "mc_paper"},
        Source{"core.hf_ns_per_bisection.n20", "large_n"},
        Source{"service.hit_rate", "serve_hot"}}) {
    if (report.has(src.marker)) continue;
    Options mini = opt;
    mini.workload = src.workload;
    mini.smoke = true;
    mini.seconds = 1.0;
    Report sub;
    run_workload(mini, sub);
    report.absorb(sub);
  }
}

bool parse(int argc, char** argv, Options& opt, std::string& trace_out) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const auto value = [&](std::string_view flag) -> const char* {
      return arg.substr(0, flag.size()) == flag ? argv[i] + flag.size()
                                                : nullptr;
    };
    if (const char* v = value("--workload=")) {
      opt.workload = v;
    } else if (const char* v = value("--seed=")) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      opt.seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--trace-out=")) {
      trace_out = v;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--layers") {
      opt.layers = true;
    } else {
      std::cerr << "lbb_benchmark: unknown argument '" << arg << "'\n";
      return false;
    }
  }
  const bool known = opt.workload == "mc_paper" || opt.workload == "large_n" ||
                     opt.workload == "serve_hot" ||
                     opt.workload == "serve_cold";
  if (!known) {
    std::cerr << "lbb_benchmark: --workload must be one of mc_paper, "
                 "large_n, serve_hot, serve_cold\n";
    return false;
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    std::cerr << "lbb_benchmark: --seconds must be in (0, 600]\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string trace_out;
  if (!parse(argc, argv, opt, trace_out)) return 2;

  Report report;
  report.info("simd_isa",
              lbb::core::simd::isa_name(lbb::core::simd::active_isa()));
  report.info("alloc_probe",
              lbb::stats::alloc_probe_linked() ? "linked" : "absent");
  report.info("hardware_concurrency",
              std::to_string(std::thread::hardware_concurrency()));

  auto& tracer = lbb::perf::Tracer::instance();
  const bool tracing = lbb::perf::kTraced && !trace_out.empty();
  if (tracing) tracer.start(std::size_t{1} << 20);
  try {
    run_workload(opt, report);
    if (tracing) {
      tracer.pause();
      report.check("trace.write", tracer.write(trace_out, opt.workload),
                   trace_out);
      report.info("trace_events", std::to_string(tracer.recorded()));
      report.info("trace_dropped", std::to_string(tracer.dropped()));
    }
    if (opt.layers) {
      fill_missing_layers(opt, report);
      lbb::perf::run_layer_probes(opt, report);
      report.metric("core.hf_self_ns_per_bisection.n20",
                    report.value("core.hf_ns_per_bisection.n20") -
                        report.value("problems.bisect_ns"),
                    "ns", 1);
    }
  } catch (const std::exception& e) {
    report.check("run", false, e.what());
  }
  report.write_json(std::cout);
  return report.correct() ? 0 : 1;
}

// lbb_bench: the unified driver for every reproduction experiment and
// microbenchmark (formerly 17 standalone binaries).
//
//   lbb_bench --help               list experiments and partitioners
//   lbb_bench <experiment> [--options]
//
// Exit codes: 0 success, 1 runtime failure, 2 bad command line (unknown
// experiment, option the experiment does not take, malformed or
// out-of-range option value, unknown --algos name), 3 cancelled
// (--time-limit expired).
#include <exception>
#include <iomanip>
#include <iostream>
#include <string_view>

#include "bench/bench_cli.hpp"
#include "bench/experiment_registry.hpp"
#include "core/partitioner.hpp"
#include "core/run_context.hpp"
#include "runtime/par_partitioners.hpp"
#include "sim/partitioners.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: lbb_bench <experiment> [--options]\n"
     << "\n"
     << "Every experiment accepts --help-style options of the form\n"
     << "--name=value; most take --trials, --seed, --threads (0 = all\n"
     << "cores; results are identical for every thread count) and --csv.\n"
     << "\n"
     << "experiments:\n";
  for (const lbb::bench::Experiment& exp : lbb::bench::experiments()) {
    os << "  " << std::left << std::setw(20) << exp.name << exp.description
       << "\n";
    // Key flags come from the registry entry itself, so --help can never
    // drift from what the experiment actually parses.
    if (!exp.flags.empty()) {
      os << "  " << std::setw(20) << "" << exp.flags << "\n";
    }
  }
  os << "\n"
     << "partitioners (names accepted where --algos applies):\n";
  for (const lbb::core::PartitionerInfo& info :
       lbb::core::PartitionerRegistry::instance().list()) {
    os << "  " << std::left << std::setw(20) << info.name << info.description
       << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Make the sim-layer ("phf:*", "sim:*") and work-stealing ("par:*")
  // names resolvable everywhere.
  lbb::sim::register_sim_partitioners();
  lbb::runtime::register_par_partitioners();

  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  const std::string_view command(argv[1]);
  if (command == "--help" || command == "-h" || command == "help") {
    print_usage(std::cout);
    return 0;
  }
  const lbb::bench::Experiment* exp = lbb::bench::find_experiment(command);
  if (exp == nullptr) {
    std::cerr << "lbb_bench: unknown experiment '" << command << "'\n\n";
    print_usage(std::cerr);
    return 2;
  }
  try {
    // Shift argv so the experiment sees itself as argv[0].  An option the
    // experiment does not take fails here instead of being ignored.
    if (!exp->own_options) {
      lbb::bench::Cli(argc - 1, argv + 1).require_known(exp->flags);
    }
    const int rc = exp->run(argc - 1, argv + 1);
    // Join the shared par:* pools at a deterministic point instead of
    // leaning on static destruction order (see par_partitioners.hpp).
    lbb::runtime::shutdown_shared_pools();
    return rc;
  } catch (const lbb::bench::CliError& e) {
    std::cerr << "lbb_bench " << exp->name << ": " << e.what() << "\n";
    return 2;
  } catch (const lbb::core::UnknownPartitionerError& e) {
    std::cerr << "lbb_bench " << exp->name << ": " << e.what() << "\n";
    return 2;
  } catch (const lbb::core::OperationCancelled& e) {
    std::cerr << "lbb_bench " << exp->name << ": cancelled: " << e.what()
              << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "lbb_bench " << exp->name << ": " << e.what() << "\n";
    return 1;
  }
}

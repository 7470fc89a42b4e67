// Tiny argv parser shared by the lbb_bench experiment harnesses.
//
// Conventions: options are --name=value, bare flags are --name; --full
// switches a bench from its quick default configuration to the
// paper-faithful one (1000 trials for every N up to 2^20); --threads=K
// runs Monte-Carlo trials on K worker threads (0 = one per hardware
// thread) with results identical to --threads=1.
//
// Malformed input (positional arguments, options the experiment does not
// take, non-numeric or out-of-range values where a number is required)
// raises CliError; the lbb_bench driver catches it, prints the message to
// stderr, and exits with status 2.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace lbb::bench {

/// Bad command-line input (exit code 2 at the driver level).
class CliError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parsed command line: --key=value pairs and bare flags.
class Cli {
 public:
  Cli(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg(argv[i]);
      if (!arg.starts_with("--")) {
        throw CliError("unknown positional argument: " + std::string(arg));
      }
      arg.remove_prefix(2);
      const auto eq = arg.find('=');
      if (eq == std::string_view::npos) {
        flags_.emplace_back(arg);
      } else {
        keys_.emplace_back(arg.substr(0, eq));
        values_.emplace_back(arg.substr(eq + 1));
      }
    }
  }

  /// Raises CliError for the first option or flag not among the
  /// space-separated `--name` tokens of `known` (an experiment registry
  /// entry's flags string).
  void require_known(std::string_view known) const {
    const std::string padded = " " + std::string(known) + " ";
    for (const auto* names : {&keys_, &flags_}) {
      for (const std::string& name : *names) {
        if (padded.find(" --" + name + " ") == std::string::npos) {
          throw CliError("--" + name + ": unknown option; expected one of '" +
                         std::string(known) + "'");
        }
      }
    }
  }

  [[nodiscard]] bool flag(std::string_view name) const {
    for (const std::string& f : flags_) {
      if (f == name) return true;
    }
    return false;
  }

  /// Integer option.  The whole value must parse ("--trials=abc",
  /// "--trials=", and "--trials=12x" all raise CliError -- no silent 0).
  [[nodiscard]] std::int64_t get_int(std::string_view name,
                                     std::int64_t fallback) const {
    const std::string* v = find(name);
    return v ? parse_int(name, *v) : fallback;
  }

  /// 32-bit integer option: get_int's strictness, and values outside
  /// int32_t raise CliError instead of wrapping when narrowed.
  [[nodiscard]] std::int32_t get_int32(std::string_view name,
                                       std::int32_t fallback) const {
    const std::string* v = find(name);
    return v ? parse_int32(name, *v) : fallback;
  }

  /// Floating-point option; same strictness as get_int.
  [[nodiscard]] double get_double(std::string_view name,
                                  double fallback) const {
    const std::string* v = find(name);
    if (v == nullptr) return fallback;
    char* end = nullptr;
    const double parsed = std::strtod(v->c_str(), &end);
    if (v->empty() || end != v->c_str() + v->size()) {
      throw CliError("--" + std::string(name) + ": expected a number, got '" +
                     *v + "'");
    }
    return parsed;
  }

  [[nodiscard]] std::string get_string(std::string_view name,
                                       std::string fallback = "") const {
    const std::string* v = find(name);
    return v ? *v : fallback;
  }

  /// Comma-separated list option ("--algos=ba,hf"); empty when absent.
  [[nodiscard]] std::vector<std::string> get_list(std::string_view name) const {
    std::vector<std::string> out;
    const std::string* v = find(name);
    if (v == nullptr) return out;
    std::string_view rest(*v);
    while (true) {
      const auto comma = rest.find(',');
      if (!rest.substr(0, comma).empty()) {
        out.emplace_back(rest.substr(0, comma));
      }
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
    return out;
  }

  /// Comma-separated 32-bit integer list option ("--logn=10,14"); empty
  /// when absent.  Every element is held to get_int32's strictness.
  [[nodiscard]] std::vector<std::int32_t> get_int_list(
      std::string_view name) const {
    std::vector<std::int32_t> out;
    for (const std::string& v : get_list(name)) {
      out.push_back(parse_int32(name, v));
    }
    return out;
  }

  /// The --threads option, for the experiment engines: absent -> fallback
  /// (default 1 = sequential); --threads=0 -> one per hardware thread;
  /// --threads=K -> exactly K; negative values raise CliError.  The
  /// experiment engines guarantee results that are byte-identical for
  /// every value.
  [[nodiscard]] std::int32_t threads(std::int32_t fallback = 1) const {
    const std::int32_t t = get_int32("threads", fallback);
    if (t < 0) {
      throw CliError("--threads: expected a non-negative integer, got '" +
                     *find("threads") + "'");
    }
    if (t == 0) {
      return static_cast<std::int32_t>(
          std::max(1u, std::thread::hardware_concurrency()));
    }
    return t;
  }

 private:
  [[nodiscard]] static std::int64_t parse_int(std::string_view name,
                                              const std::string& v) {
    char* end = nullptr;
    errno = 0;
    const std::int64_t parsed = std::strtoll(v.c_str(), &end, 10);
    if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE) {
      throw CliError("--" + std::string(name) + ": expected an integer, got '" +
                     v + "'");
    }
    return parsed;
  }

  [[nodiscard]] static std::int32_t parse_int32(std::string_view name,
                                                const std::string& v) {
    const std::int64_t parsed = parse_int(name, v);
    if (parsed < std::numeric_limits<std::int32_t>::min() ||
        parsed > std::numeric_limits<std::int32_t>::max()) {
      throw CliError("--" + std::string(name) +
                     ": expected a 32-bit integer, got '" + v + "'");
    }
    return static_cast<std::int32_t>(parsed);
  }

  [[nodiscard]] const std::string* find(std::string_view name) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == name) return &values_[i];
    }
    return nullptr;
  }

  std::vector<std::string> flags_;
  std::vector<std::string> keys_;
  std::vector<std::string> values_;
};

}  // namespace lbb::bench

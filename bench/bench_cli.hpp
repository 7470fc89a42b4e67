// Tiny argv parser shared by the lbb_bench experiment harnesses.
//
// Conventions: options are --name=value, bare flags are --name; --full
// switches a bench from its quick default configuration to the
// paper-faithful one (1000 trials for every N up to 2^20); --threads=K
// runs Monte-Carlo trials on K worker threads (0 = one per hardware
// thread) with results identical to --threads=1.
//
// Malformed input (positional arguments, non-numeric values where a
// number is required) raises CliError; the lbb_bench driver catches it,
// prints the message to stderr, and exits with status 2.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
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

  /// Comma-separated integer list option ("--logn=10,14"); empty when
  /// absent.  Every element is held to get_int's strictness.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      std::string_view name) const {
    std::vector<std::int64_t> out;
    for (const std::string& v : get_list(name)) {
      out.push_back(parse_int(name, v));
    }
    return out;
  }

  /// The --threads option, for the experiment engines: absent -> fallback
  /// (default 1 = sequential); --threads=0 -> one per hardware thread;
  /// --threads=K -> exactly K.  The experiment engines guarantee results
  /// that are byte-identical for every value.
  [[nodiscard]] std::int32_t threads(std::int32_t fallback = 1) const {
    const auto t = get_int("threads", fallback);
    if (t == 0) {
      return static_cast<std::int32_t>(
          std::max(1u, std::thread::hardware_concurrency()));
    }
    return static_cast<std::int32_t>(std::max<std::int64_t>(t, 1));
  }

 private:
  [[nodiscard]] static std::int64_t parse_int(std::string_view name,
                                              const std::string& v) {
    char* end = nullptr;
    const std::int64_t parsed = std::strtoll(v.c_str(), &end, 10);
    if (v.empty() || end != v.c_str() + v.size()) {
      throw CliError("--" + std::string(name) + ": expected an integer, got '" +
                     v + "'");
    }
    return parsed;
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

#include "core/partitioner.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/bounds.hpp"

namespace lbb::core {

namespace {

std::string unknown_message(std::string_view name,
                            const std::vector<std::string>& known) {
  std::ostringstream os;
  os << "unknown partitioner '" << name << "'; registered:";
  for (const std::string& k : known) os << ' ' << k;
  return os.str();
}

/// Shared implementation of the builtin families: the typed escape hatch
/// carries the whole algorithm identity, so the erased run() can reuse it
/// on AnyProblem (which is itself Bisectable).
class BuiltinPartitioner final : public Partitioner {
 public:
  BuiltinPartitioner(PartitionerInfo info, BuiltinAlgo algo)
      : info_(std::move(info)), algo_(algo) {}

  [[nodiscard]] const PartitionerInfo& info() const override { return info_; }

  [[nodiscard]] Partition<AnyProblem> run(RunContext& ctx, AnyProblem problem,
                                          std::int32_t n) const override {
    auto out = try_typed_partition(*this, ctx, std::move(problem), n);
    // Builtin kinds always take the typed path.
    return std::move(*out);
  }

  [[nodiscard]] double ratio_bound(std::int32_t n) const override {
    return builtin_ratio_bound(algo_.kind, algo_.alpha, algo_.beta, n);
  }

  [[nodiscard]] BuiltinAlgo builtin() const override { return algo_; }

 private:
  PartitionerInfo info_;
  BuiltinAlgo algo_;
};

PartitionerRegistry::Factory builtin_factory(PartitionerInfo info,
                                             BuiltinKind kind,
                                             ObliviousStrategy strategy = {}) {
  return [info = std::move(info), kind,
          strategy](const PartitionerConfig& config) {
    BuiltinAlgo algo;
    algo.kind = kind;
    algo.alpha = config.alpha;
    algo.beta = config.beta;
    algo.strategy = strategy;
    algo.seed = config.seed;
    algo.options = config.options;
    return std::make_unique<BuiltinPartitioner>(info, algo);
  };
}

}  // namespace

double builtin_ratio_bound(BuiltinKind kind, double alpha, double beta,
                           std::int32_t n) {
  switch (kind) {
    case BuiltinKind::kHf:
      return hf_ratio_bound(alpha);
    case BuiltinKind::kBa:
      return ba_ratio_bound(alpha, n);
    case BuiltinKind::kBaStar:
      return ba_star_ratio_bound(alpha, n);
    case BuiltinKind::kBaHf:
      return ba_hf_ratio_bound(alpha, beta, n);
    case BuiltinKind::kCustom:
    case BuiltinKind::kOblivious:
      break;  // no known worst-case bound
  }
  return 0.0;
}

UnknownPartitionerError::UnknownPartitionerError(
    std::string_view name, std::vector<std::string> known)
    : std::invalid_argument(unknown_message(name, known)),
      known_(std::move(known)) {}

PartitionerRegistry& PartitionerRegistry::instance() {
  static PartitionerRegistry registry;
  return registry;
}

PartitionerRegistry::PartitionerRegistry() {
  const auto reg = [this](const char* name, const char* display,
                          const char* description, BuiltinKind kind,
                          ObliviousStrategy strategy = {}) {
    PartitionerInfo info{name, display, description};
    add(info, builtin_factory(info, kind, strategy));
  };
  reg("hf", "HF",
      "sequential heaviest-problem-first (Figure 1; Theorem 2 bound)",
      BuiltinKind::kHf);
  reg("ba", "BA",
      "proportional processor split, inherently parallel, alpha-oblivious "
      "(Figure 3)",
      BuiltinKind::kBa);
  reg("ba_star", "BA*",
      "BA pruned at the HF phase-1 weight threshold (Algorithm BA', "
      "Section 3.4)",
      BuiltinKind::kBaStar);
  reg("ba_hf", "BA-HF",
      "BA until beta/alpha+1 processors remain, then HF (Figure 4)",
      BuiltinKind::kBaHf);
  reg("oblivious:bfs", "oblivious-BFS",
      "weight-oblivious baseline: bisect subproblems in creation order",
      BuiltinKind::kOblivious, ObliviousStrategy::kBreadthFirst);
  reg("oblivious:dfs", "oblivious-DFS",
      "weight-oblivious baseline: always bisect the newest subproblem",
      BuiltinKind::kOblivious, ObliviousStrategy::kDepthFirst);
  reg("oblivious:random", "oblivious-random",
      "weight-oblivious baseline: bisect a uniformly random subproblem",
      BuiltinKind::kOblivious, ObliviousStrategy::kRandom);
}

void PartitionerRegistry::add(PartitionerInfo info, Factory factory) {
  MutexLock lock(mu_);
  for (Entry& entry : entries_) {
    if (entry.info.name == info.name) {
      entry = Entry{std::move(info), std::move(factory)};
      return;
    }
  }
  entries_.push_back(Entry{std::move(info), std::move(factory)});
}

bool PartitionerRegistry::contains(std::string_view name) const {
  MutexLock lock(mu_);
  for (const Entry& entry : entries_) {
    if (entry.info.name == name) return true;
  }
  return false;
}

std::unique_ptr<Partitioner> PartitionerRegistry::create(
    std::string_view name, const PartitionerConfig& config) const {
  // Copy the factory out of the lock before invoking it: a factory is user
  // code and may itself consult the registry (non-recursive mutex).
  Factory factory;
  {
    MutexLock lock(mu_);
    for (const Entry& entry : entries_) {
      if (entry.info.name == name) {
        factory = entry.factory;
        break;
      }
    }
    if (!factory) throw UnknownPartitionerError(name, names_locked());
  }
  return factory(config);
}

std::vector<PartitionerInfo> PartitionerRegistry::list() const {
  std::vector<PartitionerInfo> out;
  {
    MutexLock lock(mu_);
    out.reserve(entries_.size());
    for (const Entry& entry : entries_) out.push_back(entry.info);
  }
  std::sort(out.begin(), out.end(),
            [](const PartitionerInfo& a, const PartitionerInfo& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<std::string> PartitionerRegistry::names_locked() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.info.name);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> PartitionerRegistry::names() const {
  MutexLock lock(mu_);
  return names_locked();
}

}  // namespace lbb::core

#pragma once

// The tuner: what a downstream user adopts.
//
// Two modes:
//  1. Knowledge-based (instant): query the study's dataset/influence maps
//     for the best known configuration and the per-variable influence
//     ordering for an (application, architecture) pair — the paper's
//     "recommendations" and "search-space pruning" contributions.
//  2. Search-based (measured): tune an arbitrary workload with a Runner,
//     using exhaustive, random, or influence-ordered hill-climbing search —
//     the pruned-search strategy the paper's conclusion proposes.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/influence.hpp"
#include "sim/executor.hpp"
#include "sweep/config_space.hpp"
#include "sweep/dataset.hpp"

namespace omptune::store {
class StoreReader;
}
namespace omptune::util {
class ThreadPool;
}

namespace omptune::core {

/// Knowledge-based recommendations backed by a study dataset.
///
/// Pair-scoped: construction only records where the samples live and does
/// no work. Each answer reads just the rows it needs — the asked pair's,
/// plus the architecture's when variable_priority() has to fall back — and
/// fits its influence model then. Every const member may be called
/// concurrently (the reader and the pool are themselves safe for that).
///
/// The knowledge base borrows its source: the dataset, or the reader, and
/// the pool must outlive it. Binding a temporary dataset does not compile.
class KnowledgeBase {
 public:
  /// Answers from an in-memory dataset. With a pool, a group fit's Newton
  /// passes run on it (identical answers either way).
  explicit KnowledgeBase(const sweep::Dataset& dataset,
                         double label_threshold = 1.01,
                         const util::ThreadPool* pool = nullptr);
  KnowledgeBase(sweep::Dataset&&, double = 1.01,
                const util::ThreadPool* = nullptr) = delete;

  /// Answers from an indexed .omps store, scoped to `arch`: each answer
  /// materializes only the matching index runs of that architecture, and
  /// any other architecture reads as unstudied.
  KnowledgeBase(const store::StoreReader& reader, const std::string& arch,
                double label_threshold = 1.01,
                const util::ThreadPool* pool = nullptr);
  KnowledgeBase(store::StoreReader&&, const std::string&, double = 1.01,
                const util::ThreadPool* = nullptr) = delete;

  /// Environment variables ordered by decreasing influence for the pair
  /// (falls back to the per-architecture, then the paper's Fig 3 ordering
  /// when the pair's samples do not separate; see priority_ladder). Names
  /// use the paper's spellings.
  std::vector<std::string> variable_priority(const std::string& app,
                                             const std::string& arch) const;

  /// Best known configuration for (app, arch) across the studied settings;
  /// throws std::invalid_argument if the pair has no non-quarantined samples.
  rt::RtConfig best_known_config(const std::string& app,
                                 const std::string& arch) const;

  /// Expected speedup of best_known_config over the default.
  double best_known_speedup(const std::string& app, const std::string& arch) const;

 private:
  /// The source's non-quarantined rows of `arch`, in source order; only
  /// `app`'s when set.
  sweep::Dataset rows(const std::string& arch,
                      const std::string* app = nullptr) const;
  /// The pair's rows, or std::invalid_argument when it has none.
  sweep::Dataset pair_rows(const std::string& app, const std::string& arch) const;

  const sweep::Dataset* dataset_ = nullptr;
  const store::StoreReader* reader_ = nullptr;
  std::string reader_arch_;
  double label_threshold_;
  const util::ThreadPool* pool_;
};

/// The variable-priority fallback ladder, shared by KnowledgeBase and the
/// serving snapshot so the two cannot disagree: the pair's row of
/// `pair_map()` (a per-architecture-application influence map), else the
/// architecture's row of `arch_map()` (per-architecture), else the paper's
/// Fig 3 ordering. Each map is asked for only when the ladder reaches its
/// rung, so a caller can fit it lazily.
std::vector<std::string> priority_ladder(
    const std::string& app, const std::string& arch,
    const std::function<const analysis::InfluenceMap&()>& pair_map,
    const std::function<const analysis::InfluenceMap&()>& arch_map);

/// Search-based tuning over a Runner.
class Tuner {
 public:
  struct SearchResult {
    rt::RtConfig best_config;
    double best_seconds = 0;
    double default_seconds = 0;
    double speedup = 1.0;
    std::size_t evaluations = 0;
  };

  Tuner(sim::Runner& runner, const apps::Application& app,
        apps::InputSize input, const arch::CpuArch& cpu,
        std::uint64_t seed = 1);

  /// Evaluate every configuration of the space (ground truth; expensive).
  SearchResult exhaustive(const sweep::ConfigSpace& space, int num_threads);

  /// Evaluate `budget` random configurations (always includes the default).
  SearchResult random_search(const sweep::ConfigSpace& space, int num_threads,
                             std::size_t budget);

  /// One-variable-at-a-time hill climbing in the given variable order
  /// (most influential first — the pruned search of the paper's
  /// conclusion). `variable_order` uses the paper's variable spellings;
  /// unknown names are ignored, omitted variables keep their defaults.
  SearchResult hill_climb(const sweep::ConfigSpace& space, int num_threads,
                          const std::vector<std::string>& variable_order);

  /// Hill climbing repeated with randomly shuffled variable orders — the
  /// paper's suggestion for reducing the local-minimum risk when variable
  /// dependencies are unknown. Returns the best result over all restarts;
  /// evaluation counts accumulate.
  SearchResult hill_climb_restarts(const sweep::ConfigSpace& space,
                                   int num_threads, int restarts);

  /// Simulated annealing over the discrete configuration space (one of the
  /// global strategies the related work compares): random single-variable
  /// mutations, Metropolis acceptance, geometric cooling.
  SearchResult simulated_annealing(const sweep::ConfigSpace& space,
                                   int num_threads, std::size_t budget);

  /// Surrogate-guided search (the Bayesian-optimization-style strategy of
  /// the related-work comparisons, with a k-NN runtime surrogate): after a
  /// small random warm-up, each step scores a random candidate pool with an
  /// inverse-distance-weighted k-NN prediction over the observations and
  /// evaluates the most promising candidate (with epsilon exploration).
  SearchResult surrogate_search(const sweep::ConfigSpace& space,
                                int num_threads, std::size_t budget);

 private:
  double evaluate(const rt::RtConfig& config);

  sim::Runner* runner_;
  const apps::Application* app_;
  apps::InputSize input_;
  const arch::CpuArch* cpu_;
  std::uint64_t seed_;
  std::uint64_t evaluation_index_ = 0;
};

}  // namespace omptune::core

#pragma once

// Feature-influence analysis (paper Section IV-D / Figs 2-4): label samples
// optimal vs sub-optimal, fit a logistic regression per group, and report
// the weight-normalized |coefficient| of every feature. Darker cell =
// larger share of the decision boundary = more influential variable.

#include <string>
#include <vector>

#include "ml/features.hpp"
#include "ml/logistic_regression.hpp"
#include "sweep/dataset.hpp"

namespace omptune::util {
class ThreadPool;
}

namespace omptune::analysis {

/// The paper's three grouping strategies (IV-D).
enum class Grouping {
  PerApplication,      ///< one row per app, all archs pooled (Fig 2)
  PerArchitecture,     ///< one row per arch, all apps pooled (Fig 3)
  PerArchApplication,  ///< one row per (arch, app) pair (Fig 4)
};

std::string to_string(Grouping grouping);

struct InfluenceRow {
  std::string group;               ///< e.g. "cg", "milan", "milan/cg"
  std::vector<double> influence;   ///< per feature, sums to 1
  double model_accuracy = 0.0;     ///< training accuracy of the classifier
  double positive_share = 0.0;     ///< fraction labelled optimal
  std::size_t samples = 0;
};

struct InfluenceMap {
  std::vector<std::string> feature_names;
  std::vector<InfluenceRow> rows;

  /// Influence of `feature` in `group`; throws if either is unknown.
  double at(const std::string& group, const std::string& feature) const;
};

/// Build one influence map per grouping, in the order given. Groups whose
/// labels are all identical (degenerate classification) are skipped —
/// mirroring e.g. Sort and Strassen showing no reliance where they were
/// not executed.
///
/// The group fits of all the groupings form one task list, run on `pool`
/// largest group first (each fit's own Newton passes then run inline on
/// its worker). Each map's rows are emitted in group first-appearance
/// order regardless of completion order, and each fit is deterministic, so
/// the maps are bit-identical at any thread count.
std::vector<InfluenceMap> influence_maps(const sweep::Dataset& dataset,
                                         const std::vector<Grouping>& groupings,
                                         double label_threshold = 1.01,
                                         ml::LogisticOptions options = {},
                                         const util::ThreadPool* pool = nullptr);

/// The influence map of one grouping: influence_maps of just that one.
InfluenceMap influence_map(const sweep::Dataset& dataset, Grouping grouping,
                           double label_threshold = 1.01,
                           ml::LogisticOptions options = {},
                           const util::ThreadPool* pool = nullptr);

}  // namespace omptune::analysis

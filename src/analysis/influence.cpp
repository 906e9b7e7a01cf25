#include "analysis/influence.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "ml/scaler.hpp"
#include "util/thread_pool.hpp"

namespace omptune::analysis {

std::string to_string(Grouping grouping) {
  switch (grouping) {
    case Grouping::PerApplication: return "per-application";
    case Grouping::PerArchitecture: return "per-architecture";
    case Grouping::PerArchApplication: return "per-architecture-application";
  }
  throw std::invalid_argument("to_string: bad Grouping");
}

double InfluenceMap::at(const std::string& group,
                        const std::string& feature) const {
  const auto feature_it =
      std::find(feature_names.begin(), feature_names.end(), feature);
  if (feature_it == feature_names.end()) {
    throw std::invalid_argument("InfluenceMap::at: unknown feature '" + feature + "'");
  }
  const std::size_t col =
      static_cast<std::size_t>(feature_it - feature_names.begin());
  for (const InfluenceRow& row : rows) {
    if (row.group == group) return row.influence.at(col);
  }
  throw std::invalid_argument("InfluenceMap::at: unknown group '" + group + "'");
}

namespace {

ml::FeatureOptions options_for(Grouping grouping) {
  ml::FeatureOptions options;
  switch (grouping) {
    case Grouping::PerApplication:
      // Pooling architectures: the Architecture placeholder column reveals
      // how architecture-dependent an app's tuning is (Fig 2).
      options.include_architecture = true;
      break;
    case Grouping::PerArchitecture:
      // Pooling applications: the Application column (Fig 3).
      options.include_application = true;
      break;
    case Grouping::PerArchApplication:
      break;
  }
  return options;
}

/// One group of a grouping: its key and the dataset rows it holds.
struct Group {
  std::string key;
  std::vector<std::size_t> rows;
};

/// Partition the dataset's rows by group key in one pass: groups in
/// first-appearance order, rows in dataset order — the same slices a
/// per-group filter would copy out, as indices.
std::vector<Group> partition(const sweep::Dataset& dataset, Grouping grouping) {
  std::vector<Group> groups;
  std::unordered_map<std::string, std::size_t> index;
  std::string key;
  const std::vector<sweep::Sample>& samples = dataset.samples();
  for (std::size_t r = 0; r < samples.size(); ++r) {
    const sweep::Sample& s = samples[r];
    switch (grouping) {
      case Grouping::PerApplication: key = s.app; break;
      case Grouping::PerArchitecture: key = s.arch; break;
      case Grouping::PerArchApplication:
        key = s.arch;
        key += '/';
        key += s.app;
        break;
    }
    const auto [it, inserted] = index.try_emplace(key, groups.size());
    if (inserted) groups.push_back(Group{key, {}});
    groups[it->second].rows.push_back(r);
  }
  return groups;
}

}  // namespace

InfluenceMap influence_map(const sweep::Dataset& dataset, Grouping grouping,
                           double label_threshold, ml::LogisticOptions options,
                           const util::ThreadPool* pool) {
  const ml::FeatureEncoder encoder(options_for(grouping));
  InfluenceMap map;
  map.feature_names = encoder.names();

  // One slot per group, filled concurrently (degenerate groups leave
  // theirs empty), then gathered in group order — completion order never
  // shows in the output. A group's fit receives the pool too: when the
  // group loop has saturated it, the nested Newton passes run inline.
  const std::vector<Group> groups = partition(dataset, grouping);
  std::vector<std::optional<InfluenceRow>> rows(groups.size());
  util::parallel_for(
      pool, groups.size(), 1, [&](std::size_t begin, std::size_t, std::size_t) {
        const Group& group = groups[begin];
        const std::vector<int> labels =
            ml::FeatureEncoder::labels(dataset, group.rows, label_threshold);

        const std::size_t positives = static_cast<std::size_t>(
            std::count(labels.begin(), labels.end(), 1));
        if (positives == 0 || positives == labels.size()) {
          // Degenerate group: a single class carries no separating signal.
          return;
        }

        ml::StandardScaler scaler;
        const ml::Matrix x =
            scaler.fit_transform(encoder.encode(dataset, group.rows));
        ml::LogisticRegression model(options);
        model.fit(x, labels, pool);

        InfluenceRow row;
        row.group = group.key;
        row.influence = model.normalized_influence();
        row.model_accuracy = model.accuracy(x, labels, pool);
        row.positive_share =
            static_cast<double>(positives) / static_cast<double>(labels.size());
        row.samples = labels.size();
        rows[begin] = std::move(row);
      });
  for (auto& row : rows) {
    if (row.has_value()) map.rows.push_back(std::move(*row));
  }
  return map;
}

}  // namespace omptune::analysis

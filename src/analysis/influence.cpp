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

std::vector<InfluenceMap> influence_maps(const sweep::Dataset& dataset,
                                         const std::vector<Grouping>& groupings,
                                         double label_threshold,
                                         ml::LogisticOptions options,
                                         const util::ThreadPool* pool) {
  // Every group of every grouping is one task; the list runs largest
  // first, so the biggest fits start at once and the small ones fill the
  // lanes at the end. Each task fills its own slot (degenerate groups
  // leave theirs empty), gathered per grouping in group order afterwards —
  // completion order never shows in the output. A task's fit receives the
  // pool too: when the task list has saturated it, the nested Newton
  // passes run inline.
  struct Task {
    std::size_t grouping;
    std::size_t group;
    std::size_t rows;
  };
  std::vector<ml::FeatureEncoder> encoders;
  std::vector<std::vector<Group>> partitions;
  std::vector<std::vector<std::optional<InfluenceRow>>> slots;
  std::vector<Task> tasks;
  for (std::size_t g = 0; g < groupings.size(); ++g) {
    encoders.emplace_back(options_for(groupings[g]));
    partitions.push_back(partition(dataset, groupings[g]));
    slots.emplace_back(partitions[g].size());
    for (std::size_t k = 0; k < partitions[g].size(); ++k) {
      tasks.push_back(Task{g, k, partitions[g][k].rows.size()});
    }
  }
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const Task& a, const Task& b) { return a.rows > b.rows; });

  util::parallel_for(
      pool, tasks.size(), 1, [&](std::size_t t, std::size_t, std::size_t) {
        const Task& task = tasks[t];
        const Group& group = partitions[task.grouping][task.group];
        const std::vector<int> labels =
            ml::FeatureEncoder::labels(dataset, group.rows, label_threshold);

        const std::size_t positives = static_cast<std::size_t>(
            std::count(labels.begin(), labels.end(), 1));
        if (positives == 0 || positives == labels.size()) {
          // Degenerate group: a single class carries no separating signal.
          return;
        }

        ml::StandardScaler scaler;
        const ml::Matrix x = scaler.fit_transform(
            encoders[task.grouping].encode(dataset, group.rows));
        ml::LogisticRegression model(options);
        model.fit(x, labels, pool);

        InfluenceRow row;
        row.group = group.key;
        row.influence = model.normalized_influence();
        row.model_accuracy = model.accuracy(x, labels, pool);
        row.positive_share =
            static_cast<double>(positives) / static_cast<double>(labels.size());
        row.samples = labels.size();
        slots[task.grouping][task.group] = std::move(row);
      });

  std::vector<InfluenceMap> maps(groupings.size());
  for (std::size_t g = 0; g < groupings.size(); ++g) {
    maps[g].feature_names = encoders[g].names();
    for (auto& row : slots[g]) {
      if (row.has_value()) maps[g].rows.push_back(std::move(*row));
    }
  }
  return maps;
}

InfluenceMap influence_map(const sweep::Dataset& dataset, Grouping grouping,
                           double label_threshold, ml::LogisticOptions options,
                           const util::ThreadPool* pool) {
  return std::move(
      influence_maps(dataset, {grouping}, label_threshold, options, pool)
          .front());
}

}  // namespace omptune::analysis

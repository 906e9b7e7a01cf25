#include "serve/snapshot.hpp"

#include <stdexcept>
#include <utility>

#include "analysis/influence.hpp"
#include "analysis/speedup.hpp"
#include "core/tuner.hpp"
#include "store/reader.hpp"
#include "sweep/dataset.hpp"

namespace omptune::serve {

namespace {

// Key separator for the answer tables. 0x1f (ASCII unit separator) cannot
// appear in arch/app/input names or variable spellings, so concatenated
// keys never collide.
constexpr char kSep = '\x1f';

std::string pair_key(const std::string& app, const std::string& arch) {
  return app + kSep + arch;
}

std::string setting_key(const std::string& arch, const std::string& app,
                        const std::string& input, std::int32_t threads) {
  return arch + kSep + app + kSep + input + kSep + std::to_string(threads);
}

std::string marginal_key(const std::string& arch, const std::string& variable,
                         const std::string& value) {
  return arch + kSep + variable + kSep + value;
}

/// A name no real application or architecture can have, used to walk
/// core::priority_ladder down to its lower rungs on purpose.
const std::string kNoSuchGroup(1, kSep);

}  // namespace

Snapshot::~Snapshot() = default;

std::shared_ptr<const Snapshot> Snapshot::load(
    const std::vector<std::string>& store_paths, std::uint64_t generation,
    const util::ThreadPool* pool) {
  if (store_paths.empty()) {
    throw std::invalid_argument("Snapshot::load: no store paths");
  }
  // shared_ptr<const ...> via a mutable build object; frozen on return.
  std::shared_ptr<Snapshot> snapshot(new Snapshot());
  snapshot->generation_ = generation;
  snapshot->shard_paths_ = store_paths;
  for (const std::string& path : store_paths) {
    snapshot->readers_.push_back(
        std::make_unique<store::StoreReader>(path, generation));
    snapshot->rows_ += snapshot->readers_.back()->size();
  }

  // Aggregate the answer tables. One shard serves zero-copy off the store
  // slices; multiple shards materialize and pool their rows (load-time
  // cost only — a compacted production store is a single shard).
  std::vector<analysis::SettingBest> bests;
  std::vector<analysis::MarginalRow> per_arch, pooled;
  std::vector<std::string> archs, apps;
  sweep::Dataset merged;  // multi-shard only
  if (snapshot->readers_.size() == 1) {
    const store::StoreReader& reader = *snapshot->readers_.front();
    bests = analysis::best_per_setting(reader, pool);
    per_arch = analysis::value_marginals(reader, true, pool);
    pooled = analysis::value_marginals(reader, false, pool);
    archs = reader.archs();
    apps = reader.apps();
  } else {
    for (const auto& reader : snapshot->readers_) {
      merged.append(reader->load(pool));
    }
    merged = merged.ok_samples();
    bests = analysis::best_per_setting(merged);
    per_arch = analysis::value_marginals(merged, true);
    pooled = analysis::value_marginals(merged, false);
    archs = merged.distinct([](const sweep::Sample& s) { return s.arch; });
    apps = merged.distinct([](const sweep::Sample& s) { return s.app; });
  }

  for (const analysis::SettingBest& best : bests) {
    snapshot->best_setting_[setting_key(best.arch, best.app, best.input,
                                        best.threads)] =
        BestConfig{best.best_speedup, best.best_config.key()};
    BestConfig& pair = snapshot->best_pair_[pair_key(best.app, best.arch)];
    if (pair.config_key.empty() || best.best_speedup > pair.speedup) {
      pair = BestConfig{best.best_speedup, best.best_config.key()};
    }
  }
  for (std::vector<analysis::MarginalRow>* rows : {&per_arch, &pooled}) {
    for (analysis::MarginalRow& row : *rows) {
      const std::string key = marginal_key(row.arch, row.variable, row.value);
      snapshot->marginals_[key] = std::move(row);
    }
  }

  // Influence-ordered variable priorities: one entry per (app, arch) pair
  // with samples, one arch-level fallback per arch (keyed with an empty
  // app), and the global fallback (both keys empty). Query-time lookups
  // walk that ladder, so a pair the study never covered still gets the
  // most useful ordering available — without a model fit on the hot path.
  // Every pair is wanted here, so each architecture's slice is fitted in
  // bulk (two maps) and read through the same ladder as KnowledgeBase.
  for (const std::string& arch : archs) {
    sweep::Dataset slice;
    if (snapshot->readers_.size() == 1) {
      store::StoreQuery query;
      query.arch = arch;
      slice = snapshot->readers_.front()->query(query);
      if (slice.quarantined_count() > 0) slice = slice.ok_samples();
    } else {
      slice = merged.filter(
          [&arch](const sweep::Sample& s) { return s.arch == arch; });
    }
    const analysis::InfluenceMap pair_map = analysis::influence_map(
        slice, analysis::Grouping::PerArchApplication, 1.01, {}, pool);
    const analysis::InfluenceMap arch_map = analysis::influence_map(
        slice, analysis::Grouping::PerArchitecture, 1.01, {}, pool);
    const auto pairs = [&]() -> const analysis::InfluenceMap& { return pair_map; };
    const auto by_arch = [&]() -> const analysis::InfluenceMap& { return arch_map; };
    for (const std::string& app : apps) {
      snapshot->priority_[pair_key(app, arch)] =
          core::priority_ladder(app, arch, pairs, by_arch);
    }
    snapshot->priority_[pair_key("", arch)] =
        core::priority_ladder(kNoSuchGroup, arch, pairs, by_arch);
    snapshot->priority_.try_emplace(
        pair_key("", ""),
        core::priority_ladder(kNoSuchGroup, kNoSuchGroup, pairs, by_arch));
  }

  return snapshot;
}

const BestConfig* Snapshot::best_for_pair(const std::string& app,
                                          const std::string& arch) const {
  const auto it = best_pair_.find(pair_key(app, arch));
  return it == best_pair_.end() ? nullptr : &it->second;
}

const BestConfig* Snapshot::best_for_setting(const std::string& arch,
                                             const std::string& app,
                                             const std::string& input,
                                             std::int32_t threads) const {
  const auto it = best_setting_.find(setting_key(arch, app, input, threads));
  return it == best_setting_.end() ? nullptr : &it->second;
}

const analysis::MarginalRow* Snapshot::marginal(const std::string& arch,
                                                const std::string& variable,
                                                const std::string& value) const {
  const auto it = marginals_.find(marginal_key(arch, variable, value));
  return it == marginals_.end() ? nullptr : &it->second;
}

const std::vector<std::string>* Snapshot::priority(
    const std::string& app, const std::string& arch) const {
  for (const std::string& key :
       {pair_key(app, arch), pair_key("", arch), pair_key("", "")}) {
    const auto it = priority_.find(key);
    if (it != priority_.end()) return &it->second;
  }
  return nullptr;
}

}  // namespace omptune::serve

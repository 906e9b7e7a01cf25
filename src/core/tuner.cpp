#include "core/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "ml/features.hpp"
#include "store/reader.hpp"
#include "util/rng.hpp"

namespace omptune::core {

namespace {

/// Environment variables, most-influential-first fallback ordering from the
/// paper's Fig. 3 (threads > bind > places > library/blocktime >
/// reduction/align).
const std::vector<std::string>& fig3_fallback_order() {
  static const std::vector<std::string> order = {
      "OMP_NUM_THREADS",   "OMP_PROC_BIND",       "OMP_PLACES",
      "OMP_SCHEDULE",      "KMP_LIBRARY",         "KMP_BLOCKTIME",
      "KMP_FORCE_REDUCTION", "KMP_ALIGN_ALLOC",
  };
  return order;
}

std::vector<std::string> order_from_row(const analysis::InfluenceMap& map,
                                        const analysis::InfluenceRow& row) {
  // Restrict to the tunable environment variables (drop the placeholder
  // Architecture/Application/Input Size columns).
  std::vector<std::pair<double, std::string>> scored;
  for (std::size_t c = 0; c < map.feature_names.size(); ++c) {
    const std::string& name = map.feature_names[c];
    if (name == "Architecture" || name == "Application" || name == "Input Size") {
      continue;
    }
    scored.emplace_back(row.influence[c], name);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> order;
  order.reserve(scored.size());
  for (const auto& [score, name] : scored) order.push_back(name);
  return order;
}

}  // namespace

std::vector<std::string> priority_ladder(
    const std::string& app, const std::string& arch,
    const std::function<const analysis::InfluenceMap&()>& pair_map,
    const std::function<const analysis::InfluenceMap&()>& arch_map) {
  const std::string pair_key = arch + "/" + app;
  const analysis::InfluenceMap& pairs = pair_map();
  for (const analysis::InfluenceRow& row : pairs.rows) {
    if (row.group == pair_key) return order_from_row(pairs, row);
  }
  const analysis::InfluenceMap& archs = arch_map();
  for (const analysis::InfluenceRow& row : archs.rows) {
    if (row.group == arch) return order_from_row(archs, row);
  }
  return fig3_fallback_order();
}

KnowledgeBase::KnowledgeBase(const sweep::Dataset& dataset,
                             double label_threshold,
                             const util::ThreadPool* pool)
    : dataset_(&dataset), label_threshold_(label_threshold), pool_(pool) {}

KnowledgeBase::KnowledgeBase(const store::StoreReader& reader,
                             const std::string& arch, double label_threshold,
                             const util::ThreadPool* pool)
    : reader_(&reader),
      reader_arch_(arch),
      label_threshold_(label_threshold),
      pool_(pool) {}

sweep::Dataset KnowledgeBase::rows(const std::string& arch,
                                   const std::string* app) const {
  // Quarantined placeholders are not measurements; every answer, like
  // Study::analyze, sees only the ok rows.
  if (dataset_ != nullptr) {
    return dataset_->filter([&](const sweep::Sample& s) {
      return s.arch == arch && (app == nullptr || s.app == *app) &&
             !s.is_quarantined();
    });
  }
  if (arch != reader_arch_) return sweep::Dataset();
  store::StoreQuery query;
  query.arch = arch;
  if (app != nullptr) query.app = *app;
  sweep::Dataset slice = reader_->query(query);
  if (slice.quarantined_count() > 0) slice = slice.ok_samples();
  return slice;
}

std::vector<std::string> KnowledgeBase::variable_priority(
    const std::string& app, const std::string& arch) const {
  // A group's fit is the fit of its rows alone, so fitting just the pair
  // (or just the architecture) gives the row a whole-slice map would hold.
  analysis::InfluenceMap pair_map, arch_map;
  return priority_ladder(
      app, arch,
      [&]() -> const analysis::InfluenceMap& {
        pair_map = analysis::influence_map(
            rows(arch, &app), analysis::Grouping::PerArchApplication,
            label_threshold_, {}, pool_);
        return pair_map;
      },
      [&]() -> const analysis::InfluenceMap& {
        arch_map = analysis::influence_map(
            rows(arch), analysis::Grouping::PerArchitecture, label_threshold_,
            {}, pool_);
        return arch_map;
      });
}

std::pair<double, rt::RtConfig> KnowledgeBase::best_known(
    const std::string& app, const std::string& arch) const {
  // The first row of highest speedup among the pair's ok rows, in source
  // order. A store answers off the pair's column slices: no Sample is
  // built and no runtime is read.
  std::optional<std::pair<double, rt::RtConfig>> best;
  const auto consider = [&best](double speedup, const auto& config) {
    if (!best || speedup > best->first) best.emplace(speedup, config());
  };
  if (dataset_ != nullptr) {
    for (const sweep::Sample& s : dataset_->samples()) {
      if (s.arch != arch || s.app != app || s.is_quarantined()) continue;
      consider(s.speedup, [&s] { return s.config; });
    }
  } else if (arch == reader_arch_) {
    const std::vector<store::SettingEntry> index = reader_->settings();
    for (std::size_t i = 0; i < index.size(); ++i) {
      if (index[i].arch != arch || index[i].app != app) continue;
      const store::SettingSlice slice = reader_->checked_slice(i);
      for (std::size_t r = 0; r < slice.rows; ++r) {
        if (slice.quarantined(r)) continue;
        consider(slice.speedup[r], [&slice, r] { return slice.config(r); });
      }
    }
  }
  if (!best) {
    throw std::invalid_argument("KnowledgeBase: no samples for " + app + " on " + arch);
  }
  return *best;
}

rt::RtConfig KnowledgeBase::best_known_config(const std::string& app,
                                              const std::string& arch) const {
  return best_known(app, arch).second;
}

double KnowledgeBase::best_known_speedup(const std::string& app,
                                         const std::string& arch) const {
  return best_known(app, arch).first;
}

Tuner::Tuner(sim::Runner& runner, const apps::Application& app,
             apps::InputSize input, const arch::CpuArch& cpu,
             std::uint64_t seed)
    : runner_(&runner),
      app_(&app),
      input_(std::move(input)),
      cpu_(&cpu),
      seed_(seed) {}

double Tuner::evaluate(const rt::RtConfig& config) {
  return runner_->run(*app_, input_, *cpu_, config, seed_, /*repetition=*/0,
                      evaluation_index_++);
}

Tuner::SearchResult Tuner::exhaustive(const sweep::ConfigSpace& space,
                                      int num_threads) {
  SearchResult result;
  rt::RtConfig default_config;
  default_config.num_threads = num_threads;
  default_config.align_alloc = space.aligns.front();
  result.default_seconds = evaluate(default_config);
  result.best_config = default_config;
  result.best_seconds = result.default_seconds;
  result.evaluations = 1;
  for (const rt::RtConfig& config : space.enumerate(num_threads)) {
    const double seconds = evaluate(config);
    ++result.evaluations;
    if (seconds < result.best_seconds) {
      result.best_seconds = seconds;
      result.best_config = config;
    }
  }
  result.speedup = result.default_seconds / result.best_seconds;
  return result;
}

Tuner::SearchResult Tuner::random_search(const sweep::ConfigSpace& space,
                                         int num_threads, std::size_t budget) {
  SearchResult result;
  const auto configs = space.sample(num_threads, std::max<std::size_t>(budget, 1),
                                    seed_ ^ 0xBADC0FFEEULL);
  // sample() pins the default configuration first.
  result.default_seconds = evaluate(configs.front());
  result.best_config = configs.front();
  result.best_seconds = result.default_seconds;
  result.evaluations = 1;
  for (std::size_t i = 1; i < configs.size(); ++i) {
    const double seconds = evaluate(configs[i]);
    ++result.evaluations;
    if (seconds < result.best_seconds) {
      result.best_seconds = seconds;
      result.best_config = configs[i];
    }
  }
  result.speedup = result.default_seconds / result.best_seconds;
  return result;
}

Tuner::SearchResult Tuner::hill_climb(
    const sweep::ConfigSpace& space, int num_threads,
    const std::vector<std::string>& variable_order) {
  SearchResult result;
  rt::RtConfig current;
  current.num_threads = num_threads;
  current.align_alloc = space.aligns.front();
  result.default_seconds = evaluate(current);
  result.evaluations = 1;
  double current_seconds = result.default_seconds;

  // One pass over the variables in priority order, keeping the best value
  // of each before moving on (the paper's pruned hill climbing).
  for (const std::string& variable : variable_order) {
    auto try_value = [&](const rt::RtConfig& candidate) {
      const double seconds = evaluate(candidate);
      ++result.evaluations;
      if (seconds < current_seconds) {
        current_seconds = seconds;
        current = candidate;
      }
    };
    if (variable == "OMP_PLACES") {
      for (const auto v : space.places) {
        rt::RtConfig c = current;
        c.places = v;
        if (!(c == current)) try_value(c);
      }
    } else if (variable == "OMP_PROC_BIND") {
      for (const auto v : space.binds) {
        rt::RtConfig c = current;
        c.bind = v;
        if (!(c == current)) try_value(c);
      }
    } else if (variable == "OMP_SCHEDULE") {
      for (const auto v : space.schedules) {
        rt::RtConfig c = current;
        c.schedule = v;
        if (!(c == current)) try_value(c);
      }
    } else if (variable == "KMP_LIBRARY") {
      for (const auto v : space.libraries) {
        rt::RtConfig c = current;
        c.library = v;
        if (!(c == current)) try_value(c);
      }
    } else if (variable == "KMP_BLOCKTIME") {
      for (const auto v : space.blocktimes_ms) {
        rt::RtConfig c = current;
        c.blocktime_ms = v;
        if (!(c == current)) try_value(c);
      }
    } else if (variable == "KMP_FORCE_REDUCTION") {
      for (const auto v : space.reductions) {
        rt::RtConfig c = current;
        c.reduction = v;
        if (!(c == current)) try_value(c);
      }
    } else if (variable == "KMP_ALIGN_ALLOC") {
      for (const auto v : space.aligns) {
        rt::RtConfig c = current;
        c.align_alloc = v;
        if (!(c == current)) try_value(c);
      }
    }
    // OMP_NUM_THREADS and unknown names: fixed by the caller / ignored.
  }

  result.best_config = current;
  result.best_seconds = current_seconds;
  result.speedup = result.default_seconds / result.best_seconds;
  return result;
}

Tuner::SearchResult Tuner::hill_climb_restarts(const sweep::ConfigSpace& space,
                                               int num_threads, int restarts) {
  if (restarts <= 0) {
    throw std::invalid_argument("hill_climb_restarts: restarts must be > 0");
  }
  util::Xoshiro256 rng(seed_ ^ 0x8E57A875ULL);
  SearchResult best;
  std::size_t total_evaluations = 0;
  std::vector<std::string> order = fig3_fallback_order();
  for (int attempt = 0; attempt < restarts; ++attempt) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    SearchResult result = hill_climb(space, num_threads, order);
    total_evaluations += result.evaluations;
    if (attempt == 0 || result.best_seconds < best.best_seconds) {
      const double default_seconds =
          attempt == 0 ? result.default_seconds : best.default_seconds;
      best = result;
      best.default_seconds = default_seconds;
    }
  }
  best.evaluations = total_evaluations;
  best.speedup = best.default_seconds / best.best_seconds;
  return best;
}

Tuner::SearchResult Tuner::simulated_annealing(const sweep::ConfigSpace& space,
                                               int num_threads,
                                               std::size_t budget) {
  if (budget == 0) {
    throw std::invalid_argument("simulated_annealing: budget must be > 0");
  }
  util::Xoshiro256 rng(seed_ ^ 0x5A5A5A5AULL);

  rt::RtConfig current;
  current.num_threads = num_threads;
  current.align_alloc = space.aligns.front();

  SearchResult result;
  result.default_seconds = evaluate(current);
  result.evaluations = 1;
  double current_seconds = result.default_seconds;
  result.best_config = current;
  result.best_seconds = current_seconds;

  // Mutate one random variable to a random in-space value.
  auto mutate = [&space, &rng](rt::RtConfig config) {
    switch (rng.uniform_index(7)) {
      case 0: config.places = space.places[rng.uniform_index(space.places.size())]; break;
      case 1: config.bind = space.binds[rng.uniform_index(space.binds.size())]; break;
      case 2: config.schedule = space.schedules[rng.uniform_index(space.schedules.size())]; break;
      case 3: config.library = space.libraries[rng.uniform_index(space.libraries.size())]; break;
      case 4: config.blocktime_ms = space.blocktimes_ms[rng.uniform_index(space.blocktimes_ms.size())]; break;
      case 5: config.reduction = space.reductions[rng.uniform_index(space.reductions.size())]; break;
      default: config.align_alloc = space.aligns[rng.uniform_index(space.aligns.size())]; break;
    }
    return config;
  };

  // Geometric cooling from a temperature of ~20% relative runtime delta.
  double temperature = 0.2 * result.default_seconds;
  const double cooling =
      std::pow(1e-3, 1.0 / static_cast<double>(budget));  // end near zero
  for (std::size_t step = 0; step < budget; ++step) {
    const rt::RtConfig candidate = mutate(current);
    const double seconds = evaluate(candidate);
    ++result.evaluations;
    const double delta = seconds - current_seconds;
    if (delta <= 0.0 ||
        rng.uniform() < std::exp(-delta / std::max(temperature, 1e-12))) {
      current = candidate;
      current_seconds = seconds;
    }
    if (seconds < result.best_seconds) {
      result.best_seconds = seconds;
      result.best_config = candidate;
    }
    temperature *= cooling;
  }
  result.speedup = result.default_seconds / result.best_seconds;
  return result;
}

Tuner::SearchResult Tuner::surrogate_search(const sweep::ConfigSpace& space,
                                            int num_threads,
                                            std::size_t budget) {
  if (budget == 0) {
    throw std::invalid_argument("surrogate_search: budget must be > 0");
  }
  util::Xoshiro256 rng(seed_ ^ 0x50C0DEULL);

  const ml::FeatureEncoder encoder{ml::FeatureOptions{
      .include_architecture = false,
      .include_application = false,
      .include_input_size = false,
      .include_threads = false,
  }};
  auto features_of = [&encoder, num_threads](const rt::RtConfig& config) {
    sweep::Sample sample;
    sample.config = config;
    sample.threads = num_threads;
    return encoder.encode_sample(sample);
  };

  struct Observation {
    std::vector<double> x;
    double seconds;
  };
  std::vector<Observation> observed;

  SearchResult result;
  auto evaluate_and_record = [&](const rt::RtConfig& config) {
    const double seconds = evaluate(config);
    ++result.evaluations;
    observed.push_back({features_of(config), seconds});
    if (result.evaluations == 1 || seconds < result.best_seconds) {
      result.best_seconds = seconds;
      result.best_config = config;
    }
    return seconds;
  };

  // Warm-up: the default plus a handful of random configurations.
  const std::size_t warmup = std::min<std::size_t>(budget, 8);
  const auto warm_configs =
      space.sample(num_threads, warmup, seed_ ^ 0x17A9ULL);
  result.default_seconds = evaluate_and_record(warm_configs.front());
  for (std::size_t i = 1; i < warm_configs.size(); ++i) {
    evaluate_and_record(warm_configs[i]);
  }

  // k-NN runtime prediction with inverse-distance weights.
  auto predict = [&observed](const std::vector<double>& x) {
    constexpr std::size_t kNeighbours = 5;
    std::vector<std::pair<double, double>> by_distance;  // (dist2, seconds)
    by_distance.reserve(observed.size());
    for (const Observation& o : observed) {
      double dist2 = 0.0;
      for (std::size_t c = 0; c < x.size(); ++c) {
        const double d = x[c] - o.x[c];
        dist2 += d * d;
      }
      by_distance.emplace_back(dist2, o.seconds);
    }
    std::partial_sort(by_distance.begin(),
                      by_distance.begin() +
                          static_cast<std::ptrdiff_t>(
                              std::min(kNeighbours, by_distance.size())),
                      by_distance.end());
    double weight_sum = 0.0, value = 0.0;
    for (std::size_t k = 0; k < std::min(kNeighbours, by_distance.size()); ++k) {
      const double w = 1.0 / (by_distance[k].first + 1e-6);
      weight_sum += w;
      value += w * by_distance[k].second;
    }
    return value / weight_sum;
  };

  const auto pool_source = space.enumerate(num_threads);
  constexpr std::size_t kPool = 64;
  constexpr double kEpsilon = 0.15;  // exploration probability
  while (result.evaluations < budget) {
    rt::RtConfig candidate = pool_source[rng.uniform_index(pool_source.size())];
    if (rng.uniform() >= kEpsilon) {
      // Exploit: best predicted runtime over a random pool.
      double best_predicted = predict(features_of(candidate));
      for (std::size_t p = 1; p < kPool; ++p) {
        const rt::RtConfig& other =
            pool_source[rng.uniform_index(pool_source.size())];
        const double predicted = predict(features_of(other));
        if (predicted < best_predicted) {
          best_predicted = predicted;
          candidate = other;
        }
      }
    }
    evaluate_and_record(candidate);
  }
  result.speedup = result.default_seconds / result.best_seconds;
  return result;
}

}  // namespace omptune::core

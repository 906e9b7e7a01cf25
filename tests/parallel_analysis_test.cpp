// Determinism suite for the parallel analytics engine: every store-backed
// analysis must equal the original Dataset walk exactly (the pre-pool
// serial results), and must be bit-identical across pool sizes 1, 2, 7 and
// 16 — thread count may only ever change wall-clock time.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/influence.hpp"
#include "analysis/marginals.hpp"
#include "analysis/recommend.hpp"
#include "analysis/speedup.hpp"
#include "core/study.hpp"
#include "ml/features.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/random_forest.hpp"
#include "store/reader.hpp"
#include "sweep/dataset.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace omptune {
namespace {

/// Study-shaped dataset with real structure for the model fits and a
/// sprinkling of quarantined placeholder rows the analyses must skip.
sweep::Dataset synthetic_dataset(std::size_t target) {
  const char* archs[] = {"a64fx", "milan", "skylake"};
  const char* apps[] = {"bt", "cg", "health", "nqueens", "rsbench", "xsbench"};
  const char* inputs[] = {"small", "large"};
  util::Xoshiro256 rng(7);
  sweep::Dataset dataset;
  for (const char* arch : archs) {
    for (const char* app : apps) {
      for (const char* input : inputs) {
        const std::size_t configs = target / (3 * 6 * 2);
        for (std::size_t c = 0; c < configs; ++c) {
          sweep::Sample s;
          s.arch = arch;
          s.app = app;
          s.suite = "synthetic";
          s.kind = c % 2 == 0 ? "loop" : "task";
          s.input = input;
          s.threads = 48;
          s.config.num_threads = 48;
          s.config.places = static_cast<arch::PlacesKind>(rng.uniform_index(6));
          s.config.bind = static_cast<arch::BindKind>(rng.uniform_index(6));
          s.config.schedule =
              static_cast<rt::ScheduleKind>(rng.uniform_index(4));
          s.config.chunk = static_cast<int>(rng.uniform_index(4)) * 8;
          s.config.library = static_cast<rt::LibraryMode>(rng.uniform_index(3));
          s.config.blocktime_ms =
              static_cast<std::int64_t>(rng.uniform_index(5)) * 100;
          s.config.reduction =
              static_cast<rt::ReductionMethod>(rng.uniform_index(4));
          s.config.align_alloc = 64 << rng.uniform_index(4);
          const double base =
              1.7 *
              (s.config.library == rt::LibraryMode::Throughput ? 0.8 : 1.1) *
              (s.config.bind == arch::BindKind::Spread ? 0.9 : 1.0);
          for (int r = 0; r < 4; ++r) {
            s.runtimes.push_back(base * rng.uniform(0.85, 1.15));
          }
          s.mean_runtime = (s.runtimes[0] + s.runtimes[1] + s.runtimes[2] +
                            s.runtimes[3]) / 4.0;
          s.default_runtime = 1.7;
          s.speedup = s.default_runtime / s.mean_runtime;
          s.is_default = c == 0;
          // ~4% quarantined placeholders: zeroed measurements that must not
          // leak into any statistic.
          if (!s.is_default && rng.uniform_index(25) == 0) {
            s.status = sweep::SampleStatus::Quarantined;
            s.error = "injected";
            for (double& r : s.runtimes) r = 0.0;
            s.mean_runtime = 0.0;
            s.speedup = 0.0;
          }
          dataset.add(std::move(s));
        }
      }
    }
  }
  return dataset;
}

/// Shared golden store: built once, read by every test in the binary.
struct Golden {
  std::string dir;
  sweep::Dataset dataset;
  std::unique_ptr<store::StoreReader> reader;
  std::vector<std::unique_ptr<util::ThreadPool>> pools;  // 1, 2, 7, 16 lanes

  Golden() {
    dir = (std::filesystem::temp_directory_path() /
           ("omptune_par_test_" + std::to_string(::getpid())))
              .string();
    std::filesystem::create_directories(dir);
    dataset = synthetic_dataset(3600);
    const std::string path = dir + "/golden.omps";
    dataset.save_store(path);
    reader = std::make_unique<store::StoreReader>(path);
    for (const unsigned lanes : {1u, 2u, 7u, 16u}) {
      pools.push_back(std::make_unique<util::ThreadPool>(lanes));
    }
  }
  ~Golden() { std::filesystem::remove_all(dir); }
};

const Golden& golden() {
  static Golden g;
  return g;
}

void expect_equal(const std::vector<analysis::SettingBest>& got,
                  const std::vector<analysis::SettingBest>& want,
                  const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].arch, want[i].arch) << label << " row " << i;
    EXPECT_EQ(got[i].app, want[i].app) << label << " row " << i;
    EXPECT_EQ(got[i].input, want[i].input) << label << " row " << i;
    EXPECT_EQ(got[i].threads, want[i].threads) << label << " row " << i;
    EXPECT_EQ(got[i].best_speedup, want[i].best_speedup) << label << " row " << i;
    EXPECT_EQ(got[i].best_config.key(), want[i].best_config.key())
        << label << " row " << i;
  }
}

TEST(ParallelAnalysisTest, BestPerSettingEqualsDatasetWalkAtEveryPoolSize) {
  const Golden& g = golden();
  // The Dataset walk is the pre-pool serial implementation — unchanged in
  // this codebase, so it doubles as the golden reference.
  const auto want = analysis::best_per_setting(g.dataset.ok_samples());
  expect_equal(analysis::best_per_setting(*g.reader, nullptr), want, "serial");
  for (const auto& pool : g.pools) {
    expect_equal(analysis::best_per_setting(*g.reader, pool.get()), want,
                 std::to_string(pool->threads()) + " lanes");
  }
}

TEST(ParallelAnalysisTest, RangesAndUpshotEqualDatasetWalkAtEveryPoolSize) {
  const Golden& g = golden();
  const sweep::Dataset clean = g.dataset.ok_samples();
  const auto want_arch = analysis::speedup_ranges_by_arch(clean);
  const auto want_app = analysis::speedup_ranges_by_app(clean);
  const auto want_upshot = analysis::upshot_by_arch(clean);
  for (const auto& pool : g.pools) {
    const auto by_arch = analysis::speedup_ranges_by_arch(*g.reader, pool.get());
    ASSERT_EQ(by_arch.size(), want_arch.size());
    for (std::size_t i = 0; i < by_arch.size(); ++i) {
      EXPECT_EQ(by_arch[i].app, want_arch[i].app);
      EXPECT_EQ(by_arch[i].arch, want_arch[i].arch);
      EXPECT_EQ(by_arch[i].lo, want_arch[i].lo);
      EXPECT_EQ(by_arch[i].hi, want_arch[i].hi);
    }
    const auto by_app = analysis::speedup_ranges_by_app(*g.reader, pool.get());
    ASSERT_EQ(by_app.size(), want_app.size());
    for (std::size_t i = 0; i < by_app.size(); ++i) {
      EXPECT_EQ(by_app[i].app, want_app[i].app);
      EXPECT_EQ(by_app[i].lo, want_app[i].lo);
      EXPECT_EQ(by_app[i].hi, want_app[i].hi);
    }
    const auto upshot = analysis::upshot_by_arch(*g.reader, pool.get());
    ASSERT_EQ(upshot.size(), want_upshot.size());
    for (std::size_t i = 0; i < upshot.size(); ++i) {
      EXPECT_EQ(upshot[i].arch, want_upshot[i].arch);
      EXPECT_EQ(upshot[i].min_best, want_upshot[i].min_best);
      EXPECT_EQ(upshot[i].median_best, want_upshot[i].median_best);
      EXPECT_EQ(upshot[i].max_best, want_upshot[i].max_best);
    }
  }
}

TEST(ParallelAnalysisTest, MarginalsEqualDatasetWalkAtEveryPoolSize) {
  const Golden& g = golden();
  for (const bool per_arch : {true, false}) {
    const auto want =
        analysis::value_marginals(g.dataset.ok_samples(), per_arch);
    for (const auto& pool : g.pools) {
      const auto got = analysis::value_marginals(*g.reader, per_arch, pool.get());
      ASSERT_EQ(got.size(), want.size()) << per_arch;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].arch, want[i].arch);
        EXPECT_EQ(got[i].variable, want[i].variable);
        EXPECT_EQ(got[i].value, want[i].value);
        EXPECT_EQ(got[i].samples, want[i].samples);
        EXPECT_EQ(got[i].mean_speedup, want[i].mean_speedup);
        EXPECT_EQ(got[i].median_speedup, want[i].median_speedup);
        EXPECT_EQ(got[i].p95_speedup, want[i].p95_speedup);
        EXPECT_EQ(got[i].optimal_share, want[i].optimal_share);
      }
    }
  }
}

TEST(ParallelAnalysisTest, RecommendationsEqualDatasetWalkAtEveryPoolSize) {
  const Golden& g = golden();
  for (const char* app : {"nqueens", "xsbench"}) {
    const auto want = analysis::recommend_for_app(g.dataset, app);
    for (const auto& pool : g.pools) {
      const auto got =
          analysis::recommend_for_app(*g.reader, app, 0.01, 1.3, pool.get());
      ASSERT_EQ(got.size(), want.size()) << app;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].app, want[i].app);
        EXPECT_EQ(got[i].arch, want[i].arch);
        EXPECT_EQ(got[i].variable, want[i].variable);
        EXPECT_EQ(got[i].value, want[i].value);
        EXPECT_EQ(got[i].lift, want[i].lift);
        EXPECT_EQ(got[i].share_in_best, want[i].share_in_best);
      }
    }
  }
}

TEST(ParallelAnalysisTest, SettingSummariesBitIdenticalAcrossPoolSizes) {
  const Golden& g = golden();
  const auto want = analysis::setting_runtime_summaries(*g.reader, nullptr);
  ASSERT_FALSE(want.empty());
  for (const auto& s : want) {
    EXPECT_GT(s.runtime.count, 0u);
    EXPECT_GT(s.runtime.mean, 0.0);  // quarantined zero-runtimes excluded
  }
  for (const auto& pool : g.pools) {
    const auto got = analysis::setting_runtime_summaries(*g.reader, pool.get());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].arch, want[i].arch);
      EXPECT_EQ(got[i].app, want[i].app);
      EXPECT_EQ(got[i].input, want[i].input);
      EXPECT_EQ(got[i].threads, want[i].threads);
      EXPECT_EQ(got[i].runtime.count, want[i].runtime.count);
      EXPECT_EQ(got[i].runtime.mean, want[i].runtime.mean);
      EXPECT_EQ(got[i].runtime.stddev, want[i].runtime.stddev);
      EXPECT_EQ(got[i].runtime.median, want[i].runtime.median);
    }
  }
}

void expect_equal(const analysis::InfluenceMap& got,
                  const analysis::InfluenceMap& want, const std::string& label) {
  ASSERT_EQ(got.feature_names, want.feature_names) << label;
  ASSERT_EQ(got.rows.size(), want.rows.size()) << label;
  for (std::size_t i = 0; i < got.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].group, want.rows[i].group) << label;
    EXPECT_EQ(got.rows[i].influence, want.rows[i].influence) << label;
    EXPECT_EQ(got.rows[i].model_accuracy, want.rows[i].model_accuracy) << label;
    EXPECT_EQ(got.rows[i].positive_share, want.rows[i].positive_share) << label;
    EXPECT_EQ(got.rows[i].samples, want.rows[i].samples) << label;
  }
}

TEST(ParallelAnalysisTest, AnalyzeStoreEqualsSerialAnalyzeAtEveryPoolSize) {
  const Golden& g = golden();
  sim::ModelRunner runner;
  const core::Study study(runner);
  const core::StudyResult want = study.analyze(g.dataset);  // pre-pool path
  for (const auto& pool : g.pools) {
    const core::StudyResult got = study.analyze_store(*g.reader, pool.get());
    EXPECT_EQ(got.dataset.size(), want.dataset.size());
    ASSERT_EQ(got.upshot.size(), want.upshot.size());
    for (std::size_t i = 0; i < got.upshot.size(); ++i) {
      EXPECT_EQ(got.upshot[i].arch, want.upshot[i].arch);
      EXPECT_EQ(got.upshot[i].min_best, want.upshot[i].min_best);
      EXPECT_EQ(got.upshot[i].median_best, want.upshot[i].median_best);
      EXPECT_EQ(got.upshot[i].max_best, want.upshot[i].max_best);
    }
    expect_equal(got.per_app_influence, want.per_app_influence, "per-app");
    expect_equal(got.per_arch_influence, want.per_arch_influence, "per-arch");
    expect_equal(got.per_arch_app_influence, want.per_arch_app_influence,
                 "per-arch-app");
    ASSERT_EQ(got.worst_trends.size(), want.worst_trends.size());
    for (std::size_t i = 0; i < got.worst_trends.size(); ++i) {
      EXPECT_EQ(got.worst_trends[i].condition, want.worst_trends[i].condition);
      EXPECT_EQ(got.worst_trends[i].lift, want.worst_trends[i].lift);
    }
  }
}

TEST(ParallelAnalysisTest, InfluenceMapsEqualOneMapPerGroupingAtEveryPoolSize) {
  // One largest-first task list over all three groupings must give exactly
  // the maps of three separate influence_map calls.
  const sweep::Dataset clean = golden().dataset.ok_samples();
  const std::vector<analysis::Grouping> groupings = {
      analysis::Grouping::PerApplication, analysis::Grouping::PerArchitecture,
      analysis::Grouping::PerArchApplication};
  for (const unsigned lanes : {1u, 2u, 8u}) {
    const util::ThreadPool pool(lanes);
    const std::vector<analysis::InfluenceMap> maps =
        analysis::influence_maps(clean, groupings, 1.01, {}, &pool);
    ASSERT_EQ(maps.size(), groupings.size());
    for (std::size_t g = 0; g < groupings.size(); ++g) {
      const std::string label = std::to_string(lanes) + " lanes, " +
                                analysis::to_string(groupings[g]);
      const analysis::InfluenceMap want =
          analysis::influence_map(clean, groupings[g]);
      EXPECT_EQ(maps[g].feature_names, want.feature_names) << label;
      ASSERT_EQ(maps[g].rows.size(), want.rows.size()) << label;
      for (std::size_t r = 0; r < want.rows.size(); ++r) {
        EXPECT_EQ(maps[g].rows[r].group, want.rows[r].group) << label;
        EXPECT_EQ(maps[g].rows[r].influence, want.rows[r].influence) << label;
        EXPECT_EQ(maps[g].rows[r].model_accuracy, want.rows[r].model_accuracy)
            << label;
        EXPECT_EQ(maps[g].rows[r].positive_share, want.rows[r].positive_share)
            << label;
        EXPECT_EQ(maps[g].rows[r].samples, want.rows[r].samples) << label;
      }
    }
  }
}

TEST(ParallelAnalysisTest, LogisticFitBitIdenticalAcrossPoolSizes) {
  const Golden& g = golden();
  const ml::FeatureEncoder encoder;
  const sweep::Dataset clean = g.dataset.ok_samples();
  const ml::Matrix x = encoder.encode(clean);
  const std::vector<int> y = ml::FeatureEncoder::labels(clean);

  ml::LogisticRegression serial;
  serial.fit(x, y, nullptr);
  for (const auto& pool : g.pools) {
    ml::LogisticRegression parallel;
    parallel.fit(x, y, pool.get());
    EXPECT_EQ(parallel.coefficients(), serial.coefficients())
        << pool->threads() << " lanes";
    EXPECT_EQ(parallel.intercept(), serial.intercept());
    EXPECT_EQ(parallel.predict_proba(x, pool.get()),
              serial.predict_proba(x, nullptr));
    EXPECT_EQ(parallel.accuracy(x, y, pool.get()), serial.accuracy(x, y));
  }
}

TEST(ParallelAnalysisTest, ForestFitBitIdenticalAcrossPoolSizes) {
  const Golden& g = golden();
  const ml::FeatureEncoder encoder;
  const sweep::Dataset clean = g.dataset.ok_samples();
  const ml::Matrix x = encoder.encode(clean);
  const std::vector<int> y = ml::FeatureEncoder::labels(clean);

  ml::ForestOptions options;
  options.num_trees = 12;
  ml::RandomForest serial(options);
  serial.fit(x, y, nullptr);
  for (const auto& pool : g.pools) {
    ml::RandomForest parallel(options);
    parallel.fit(x, y, pool.get());
    EXPECT_EQ(parallel.predict_proba(x), serial.predict_proba(x))
        << pool->threads() << " lanes";
    EXPECT_EQ(parallel.oob_accuracy(), serial.oob_accuracy());
    EXPECT_EQ(parallel.feature_importance(), serial.feature_importance());
  }
}

TEST(ParallelAnalysisTest, ScanCountsRuntimeSectionBytesExactlyOnce) {
  // The traffic counter is atomic (workers bump it concurrently during
  // query materialization) and scan validation charges the whole runtime
  // section exactly once, no matter how many scans follow.
  const Golden& g = golden();
  const std::string path = g.dir + "/counter.omps";
  g.dataset.save_store(path);
  const store::StoreReader reader(path);
  EXPECT_EQ(reader.runtime_bytes_touched(), 0u);

  const std::uint64_t runtime_section_bytes =
      static_cast<std::uint64_t>(reader.size()) * reader.repetitions() * 8;
  std::atomic<std::size_t> settings_seen{0};
  const util::ThreadPool pool(4);
  for (int repeat = 0; repeat < 3; ++repeat) {
    settings_seen = 0;
    reader.scan(
        [&](const store::SettingSlice& slice) {
          settings_seen.fetch_add(1, std::memory_order_relaxed);
          EXPECT_GT(slice.rows, 0u);
        },
        &pool);
    EXPECT_EQ(settings_seen.load(), reader.setting_count());
    EXPECT_EQ(reader.runtime_bytes_touched(), runtime_section_bytes);
  }
}

}  // namespace
}  // namespace omptune

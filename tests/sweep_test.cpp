// Sweep harness tests: the configuration space of Section III, the study
// plan of Table II, speedup enrichment, and dataset CSV round-tripping.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include <unistd.h>

#include "sim/executor.hpp"
#include "sweep/config_space.hpp"
#include "sweep/dataset.hpp"
#include "sweep/harness.hpp"
#include "util/thread_pool.hpp"

namespace omptune::sweep {
namespace {

using arch::ArchId;
using arch::architecture;

TEST(ConfigSpace, PaperSizes) {
  // X86: 4 places x 6 binds x 4 schedules x 2 libraries x 3 blocktimes x
  // 4 reductions x 4 aligns = 9216. A64FX has 2 aligns: 4608.
  EXPECT_EQ(ConfigSpace::paper_space(architecture(ArchId::Skylake)).size(), 9216u);
  EXPECT_EQ(ConfigSpace::paper_space(architecture(ArchId::Milan)).size(), 9216u);
  EXPECT_EQ(ConfigSpace::paper_space(architecture(ArchId::A64FX)).size(), 4608u);
}

TEST(ConfigSpace, A64fxAlignSetRespectsCacheline) {
  const auto space = ConfigSpace::paper_space(architecture(ArchId::A64FX));
  EXPECT_EQ(space.aligns, (std::vector<int>{256, 512}));
  const auto x86 = ConfigSpace::paper_space(architecture(ArchId::Skylake));
  EXPECT_EQ(x86.aligns, (std::vector<int>{64, 128, 256, 512}));
}

TEST(ConfigSpace, EnumerationIsExhaustiveAndUnique) {
  const auto space = ConfigSpace::paper_space(architecture(ArchId::A64FX));
  const auto configs = space.enumerate(0);
  EXPECT_EQ(configs.size(), space.size());
  std::set<std::string> keys;
  for (const auto& c : configs) keys.insert(c.key());
  EXPECT_EQ(keys.size(), configs.size());
}

TEST(ConfigSpace, SampleIsDeterministicAndAnchorsDefault) {
  const auto space = ConfigSpace::paper_space(architecture(ArchId::Milan));
  const auto a = space.sample(0, 500, 99);
  const auto b = space.sample(0, 500, 99);
  ASSERT_EQ(a.size(), 500u);
  EXPECT_EQ(a, b);
  // Front element is the default configuration with the explicit
  // cache-line alignment.
  EXPECT_EQ(a.front().places, arch::PlacesKind::Unset);
  EXPECT_EQ(a.front().bind, arch::BindKind::Unset);
  EXPECT_EQ(a.front().schedule, rt::ScheduleKind::Static);
  EXPECT_EQ(a.front().library, rt::LibraryMode::Throughput);
  EXPECT_EQ(a.front().blocktime_ms, 200);
  EXPECT_EQ(a.front().reduction, rt::ReductionMethod::Default);
  EXPECT_EQ(a.front().align_alloc, 64);
  // Different seeds give different subsets.
  const auto c = space.sample(0, 500, 100);
  EXPECT_NE(a, c);
  EXPECT_EQ(c.front(), a.front());  // but the anchor is identical
}

TEST(ConfigSpace, SampleClampsToSpaceSize) {
  const auto space = ConfigSpace::paper_space(architecture(ArchId::A64FX));
  const auto all = space.sample(0, 1 << 20, 7);
  EXPECT_EQ(all.size(), space.size());
  std::set<std::string> keys;
  for (const auto& config : all) keys.insert(config.key());
  EXPECT_EQ(keys.size(), all.size());  // a permutation, not a resample
}

TEST(ConfigSpace, SampleSizeIsTheSampleLength) {
  const auto space = ConfigSpace::paper_space(architecture(ArchId::A64FX));
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, space.size(),
        space.size() + 5}) {
    EXPECT_EQ(space.sample_size(count), space.sample(0, count, 3).size())
        << "count " << count;
  }
}

TEST(ThreadSweep, QuarterStepsOfTheMachine) {
  EXPECT_EQ(thread_sweep(architecture(ArchId::Skylake)),
            (std::vector<int>{10, 20, 30, 40}));
  EXPECT_EQ(thread_sweep(architecture(ArchId::Milan)),
            (std::vector<int>{24, 48, 72, 96}));
  EXPECT_EQ(thread_sweep(architecture(ArchId::A64FX)),
            (std::vector<int>{12, 24, 36, 48}));
}

TEST(StudyPlan, TableTwoSampleTotals) {
  const StudyPlan plan = StudyPlan::paper_plan();
  ASSERT_EQ(plan.arch_plans.size(), 3u);

  std::size_t total = 0;
  for (const ArchPlan& arch_plan : plan.arch_plans) {
    total += arch_plan.total_samples();
    std::set<std::string> app_names;
    for (const StudySetting& s : arch_plan.settings) {
      app_names.insert(s.app->name());
    }
    switch (arch_plan.arch) {
      case ArchId::A64FX:
        EXPECT_EQ(arch_plan.total_samples(), 53822u);
        EXPECT_EQ(app_names.size(), 15u);  // Table II: 15 applications
        break;
      case ArchId::Milan:
        EXPECT_EQ(arch_plan.total_samples(), 99707u);
        EXPECT_EQ(app_names.size(), 13u);
        EXPECT_EQ(app_names.count("sort"), 0u);
        EXPECT_EQ(app_names.count("strassen"), 0u);
        break;
      case ArchId::Skylake:
        EXPECT_EQ(arch_plan.total_samples(), 90230u);
        EXPECT_EQ(app_names.size(), 12u);
        break;
    }
  }
  EXPECT_EQ(total, 243759u);  // the paper's "over 240,000 unique samples"
}

TEST(StudyPlan, SettingsFollowSweepModes) {
  const StudyPlan plan = StudyPlan::paper_plan();
  for (const ArchPlan& arch_plan : plan.arch_plans) {
    for (const StudySetting& s : arch_plan.settings) {
      if (s.app->sweep_mode() == apps::SweepMode::VaryInputSize) {
        EXPECT_EQ(s.num_threads, 0) << s.app->name();
      } else {
        EXPECT_GT(s.num_threads, 0) << s.app->name();
      }
    }
  }
}

TEST(SweepHarness, SettingProducesEnrichedSamples) {
  sim::ModelRunner runner;
  SweepHarness harness(runner, /*repetitions=*/3, /*seed=*/11);
  const auto& cpu = architecture(ArchId::Milan);
  StudySetting setting{&apps::find_application("xsbench"),
                       apps::find_application("xsbench").default_input(), 48};
  const Dataset dataset = harness.run_setting(cpu, setting, 200);
  ASSERT_EQ(dataset.size(), 200u);

  const Sample& first = dataset.samples().front();
  EXPECT_TRUE(first.is_default);
  EXPECT_DOUBLE_EQ(first.speedup, 1.0);
  EXPECT_EQ(first.threads, 48);

  int better = 0;
  for (const Sample& s : dataset.samples()) {
    ASSERT_EQ(s.runtimes.size(), 3u);
    EXPECT_GT(s.mean_runtime, 0.0);
    EXPECT_DOUBLE_EQ(s.default_runtime, first.mean_runtime);
    EXPECT_NEAR(s.speedup, s.default_runtime / s.mean_runtime, 1e-12);
    if (s.speedup > 1.01) ++better;
  }
  // XSBench on Milan has substantial tuning headroom.
  EXPECT_GT(better, 10);
}

TEST(SweepHarness, DeterministicAcrossRuns) {
  sim::ModelRunner runner_a, runner_b;
  SweepHarness a(runner_a, 2, 5), b(runner_b, 2, 5);
  const auto& cpu = architecture(ArchId::Skylake);
  StudySetting setting{&apps::find_application("cg"),
                       apps::find_application("cg").input_sizes().front(), 0};
  const Dataset da = a.run_setting(cpu, setting, 50);
  const Dataset db = b.run_setting(cpu, setting, 50);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da.samples()[i].runtimes, db.samples()[i].runtimes);
  }
}

TEST(SweepHarness, RejectsNonPositiveRepetitions) {
  sim::ModelRunner runner;
  EXPECT_THROW(SweepHarness(runner, 0), std::invalid_argument);
}

TEST(SweepHarness, MiniStudyRunsAllArchitectures) {
  sim::ModelRunner runner;
  SweepHarness harness(runner, 2);
  const Dataset dataset =
      harness.run_study(StudyPlan::mini_plan(/*apps=*/2, /*configs=*/30));
  EXPECT_EQ(dataset.size(), 3u * 2u * 30u);
  const auto archs = dataset.distinct([](const Sample& s) { return s.arch; });
  EXPECT_EQ(archs.size(), 3u);
}

void expect_same_samples(const Dataset& got, const Dataset& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Sample& a = got.samples()[i];
    const Sample& b = want.samples()[i];
    SCOPED_TRACE("row " + std::to_string(i));
    EXPECT_EQ(a.arch, b.arch);
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.suite, b.suite);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.input, b.input);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.runtimes, b.runtimes);
    EXPECT_EQ(a.mean_runtime, b.mean_runtime);
    EXPECT_EQ(a.default_runtime, b.default_runtime);
    EXPECT_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.is_default, b.is_default);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.error, b.error);
  }
}

/// The plan collected setting by setting with run_setting, and the
/// progress lines run_study reports for it.
struct SettingBySetting {
  Dataset dataset;
  std::vector<std::string> progress;
};

SettingBySetting collect_by_setting(SweepHarness& harness,
                                    const StudyPlan& plan) {
  SettingBySetting out;
  for (const ArchPlan& arch_plan : plan.arch_plans) {
    const arch::CpuArch& cpu = architecture(arch_plan.arch);
    for (std::size_t i = 0; i < arch_plan.settings.size(); ++i) {
      out.dataset.append(harness.run_setting(cpu, arch_plan.settings[i],
                                             arch_plan.configs_per_setting[i]));
      out.progress.push_back(setting_key(cpu.name, arch_plan.settings[i]) +
                             " -> " + std::to_string(out.dataset.size()) +
                             " samples");
    }
  }
  return out;
}

TEST(SweepHarness, StudyOnAPoolEqualsSettingBySetting) {
  // A concurrent runner's study fans the settings out; every lane count
  // must give the setting-by-setting dataset, with progress on the calling
  // thread in plan order.
  const StudyPlan plan = StudyPlan::mini_plan(3, 20);
  sim::ModelRunner runner;
  SweepHarness harness(runner, 3, 21);
  const SettingBySetting expected = collect_by_setting(harness, plan);
  const std::thread::id caller = std::this_thread::get_id();
  for (const unsigned lanes : {1u, 2u, 8u}) {
    SCOPED_TRACE(std::to_string(lanes) + " lanes");
    const util::ThreadPool pool(lanes);
    std::vector<std::string> progress;
    StudyRunOptions options;
    options.pool = &pool;
    options.progress = [&](const std::string& line) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      progress.push_back(line);
    };
    expect_same_samples(harness.run_study(plan, options), expected.dataset);
    EXPECT_EQ(progress, expected.progress);
  }
  // Without a lent pool the study makes its own.
  expect_same_samples(harness.run_study(plan), expected.dataset);
}

/// Records the thread and the (seed, repetition, index) of every call, in
/// call order, and answers with the model.
class RecordingRunner final : public sim::Runner {
 public:
  explicit RecordingRunner(bool concurrent) : concurrent_(concurrent) {}

  struct Call {
    std::thread::id thread;
    std::uint64_t batch_seed;
    int repetition;
    std::uint64_t sample_index;
  };

  double run(const apps::Application& app, const apps::InputSize& input,
             const arch::CpuArch& cpu, const rt::RtConfig& config,
             std::uint64_t batch_seed, int repetition,
             std::uint64_t sample_index) override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      calls_.push_back(Call{std::this_thread::get_id(), batch_seed, repetition,
                            sample_index});
    }
    return model_.run(app, input, cpu, config, batch_seed, repetition,
                      sample_index);
  }
  bool concurrent() const override { return concurrent_; }

  std::vector<Call> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(calls_, {});
  }

 private:
  bool concurrent_;
  sim::ModelRunner model_;
  std::mutex mutex_;
  std::vector<Call> calls_;
};

TEST(SweepHarness, SequentialRunsKeepEveryRunnerCallOnTheCallingThread) {
  // A runner that does not declare concurrency, and resilient, journaled
  // and observed runs with one that does, keep the plan-order loop: every
  // call on the calling thread, in the setting-by-setting order — even
  // with a pool lent.
  const StudyPlan plan = StudyPlan::mini_plan(2, 12);
  const std::thread::id caller = std::this_thread::get_id();
  const util::ThreadPool pool(4);
  const std::string journal_dir =
      (std::filesystem::temp_directory_path() /
       ("omptune_sweep_serial_" + std::to_string(::getpid())))
          .string();

  RecordingRunner reference_runner(false);
  SweepHarness reference(reference_runner, 2, 9);
  const Dataset expected = collect_by_setting(reference, plan).dataset;
  const std::vector<RecordingRunner::Call> order = reference_runner.take();

  struct Case {
    const char* name;
    bool concurrent;
    bool resilient;
    bool journaled;
    bool observed;
  };
  for (const Case& c : {Case{"not concurrent", false, false, false, false},
                        Case{"resilient", true, true, false, false},
                        Case{"journaled", true, false, true, false},
                        Case{"observed", true, false, false, true}}) {
    SCOPED_TRACE(c.name);
    RecordingRunner runner(c.concurrent);
    SweepHarness harness(runner, 2, 9);
    std::size_t observed = 0;
    if (c.observed) harness.set_sample_observer([&observed] { ++observed; });
    StudyRunOptions options;
    options.pool = &pool;
    options.resilient = c.resilient;
    if (c.journaled) options.journal_dir = journal_dir;
    expect_same_samples(harness.run_study(plan, options), expected);
    const std::vector<RecordingRunner::Call> calls = runner.take();
    ASSERT_EQ(calls.size(), order.size());
    for (std::size_t i = 0; i < calls.size(); ++i) {
      ASSERT_EQ(calls[i].thread, caller) << "call " << i;
      ASSERT_EQ(calls[i].batch_seed, order[i].batch_seed) << "call " << i;
      ASSERT_EQ(calls[i].repetition, order[i].repetition) << "call " << i;
      ASSERT_EQ(calls[i].sample_index, order[i].sample_index) << "call " << i;
    }
    if (c.observed) {
      EXPECT_EQ(observed, calls.size());
    }
    std::filesystem::remove_all(journal_dir);
  }
}

TEST(Dataset, CsvRoundTrip) {
  sim::ModelRunner runner;
  SweepHarness harness(runner, 2);
  const auto& cpu = architecture(ArchId::A64FX);
  StudySetting setting{&apps::find_application("nqueens"),
                       apps::find_application("nqueens").input_sizes().front(), 0};
  const Dataset dataset = harness.run_setting(cpu, setting, 40);

  std::ostringstream os;
  dataset.to_csv().write(os);
  std::istringstream is(os.str());
  const Dataset parsed = Dataset::from_csv(util::CsvTable::read(is));

  ASSERT_EQ(parsed.size(), dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const Sample& a = dataset.samples()[i];
    const Sample& b = parsed.samples()[i];
    EXPECT_EQ(a.arch, b.arch);
    EXPECT_EQ(a.app, b.app);
    // The CSV stores the resolved team size, so a default (0) thread count
    // normalizes to the explicit count on parse; compare resolved configs.
    rt::RtConfig resolved = a.config;
    resolved.num_threads = a.threads;
    EXPECT_EQ(resolved.key(), b.config.key());
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_NEAR(a.speedup, b.speedup, 1e-5);
    EXPECT_EQ(a.is_default, b.is_default);
    ASSERT_EQ(a.runtimes.size(), b.runtimes.size());
    for (std::size_t r = 0; r < a.runtimes.size(); ++r) {
      EXPECT_NEAR(a.runtimes[r], b.runtimes[r], 1e-7);
    }
  }
}

TEST(Dataset, FilterAndDistinct) {
  Dataset dataset;
  Sample s;
  s.arch = "milan";
  s.app = "cg";
  s.speedup = 1.2;
  dataset.add(s);
  s.arch = "a64fx";
  s.speedup = 0.9;
  dataset.add(s);
  const Dataset milan_only =
      dataset.filter([](const Sample& x) { return x.arch == "milan"; });
  EXPECT_EQ(milan_only.size(), 1u);
  EXPECT_EQ(dataset.distinct([](const Sample& x) { return x.arch; }),
            (std::vector<std::string>{"milan", "a64fx"}));
}

TEST(Dataset, AppendGrowsGeometrically) {
  // Collection appends one batch per setting; an exact-size reserve per
  // append would reallocate (and move every sample so far) each time.
  constexpr int kAppends = 4096;
  Dataset dataset;
  int capacity_changes = 0;
  std::size_t capacity = dataset.samples().capacity();
  for (int i = 0; i < kAppends; ++i) {
    Dataset one;
    Sample s;
    s.threads = i;
    one.add(std::move(s));
    dataset.append(std::move(one));
    if (dataset.samples().capacity() != capacity) {
      capacity = dataset.samples().capacity();
      ++capacity_changes;
    }
  }
  EXPECT_LE(capacity_changes, 2 * 12);  // 2 * log2(4096)
  ASSERT_EQ(dataset.size(), static_cast<std::size_t>(kAppends));
  for (int i = 0; i < kAppends; ++i) {
    EXPECT_EQ(dataset.samples()[static_cast<std::size_t>(i)].threads, i);
  }
}

}  // namespace
}  // namespace omptune::sweep

// paper_pipeline: the paper's full Table II study in model mode, end to end
// — direct collection, .omps write, Study::analyze_store on an nproc-lane
// pool, then one-shot queries (StoreReader + KnowledgeBase +
// recommend_for_app) for one seed-chosen application per architecture.
// One task is that whole pipeline; task_s is its median over the passes
// that fit the measurement window (at least one).
//
// Set-up (timed) builds the plan and the query list.
// After it, the plan is collected once setting by setting
// (collect_by_setting) to derive the expected outputs: per-arch sample
// counts and each (app, arch) pair's best speedup. Each pass must reproduce
// Table II's counts, and its analysis (Table V) and one-shot queries must
// report those best speedups. One operation is one setting of the study; it
// fails when it holds a quarantined sample.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/influence.hpp"
#include "analysis/recommend.hpp"
#include "analysis/speedup.hpp"
#include "bench.hpp"
#include "core/study.hpp"
#include "core/tuner.hpp"
#include "sim/executor.hpp"
#include "store/reader.hpp"
#include "sweep/harness.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace omptune;

/// Delegating runner that sums the time and count of the wrapped runner's
/// calls — the sim layer's share of a traced study.
class TimingRunner final : public sim::Runner {
 public:
  explicit TimingRunner(sim::Runner& inner) : inner_(inner) {}

  double run(const apps::Application& app, const apps::InputSize& input,
             const arch::CpuArch& cpu, const rt::RtConfig& config,
             std::uint64_t batch_seed, int repetition,
             std::uint64_t sample_index) override {
    const Clock::time_point start = Clock::now();
    const double seconds = inner_.run(app, input, cpu, config, batch_seed,
                                      repetition, sample_index);
    pending_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - start)
                       .count();
    ++pending_calls_;
    return seconds;
  }

  /// Time and calls since the previous take, added to the totals.
  std::pair<std::int64_t, std::uint64_t> take() {
    const auto out = std::make_pair(pending_ns_, pending_calls_);
    total_calls_ += pending_calls_;
    pending_ns_ = 0;
    pending_calls_ = 0;
    return out;
  }
  std::uint64_t total_calls() const { return total_calls_; }

 private:
  sim::Runner& inner_;
  std::int64_t pending_ns_ = 0;
  std::uint64_t pending_calls_ = 0;
  std::uint64_t total_calls_ = 0;
};

const std::map<std::string, std::size_t> kTableII = {
    {"a64fx", 53822}, {"milan", 99707}, {"skylake", 90230}};

struct Setup {
  sweep::StudyPlan plan;
  std::size_t settings = 0;
  /// (app, arch) of the one-shot queries: one seed-chosen app per arch.
  std::vector<std::pair<std::string, std::string>> queries;
  std::string store_path;
};

std::unique_ptr<Setup> make_setup(const Options& options) {
  auto setup = std::make_unique<Setup>();
  setup->plan = sweep::StudyPlan::paper_plan();
  util::Xoshiro256 rng(options.seed);
  for (const sweep::ArchPlan& arch_plan : setup->plan.arch_plans) {
    setup->settings += arch_plan.settings.size();
    std::vector<std::string> apps;
    for (const sweep::StudySetting& setting : arch_plan.settings) {
      if (std::find(apps.begin(), apps.end(), setting.app->name()) ==
          apps.end()) {
        apps.push_back(setting.app->name());
      }
    }
    setup->queries.emplace_back(apps[rng.uniform_index(apps.size())],
                                arch::to_string(arch_plan.arch));
  }
  setup->store_path =
      (std::filesystem::path(options.workdir) / "study.omps").string();
  return setup;
}

/// Expected outputs, from the setting-by-setting collection.
struct Expected {
  std::map<std::string, std::size_t> samples_per_arch;
  std::map<std::string, double> best_by_pair;  ///< "app/arch" -> speedup
};

Expected expected_outputs(const Setup& setup, const Options& options) {
  Expected expected;
  collect_by_setting(
      setup.plan, study_seed(options.seed), [&](const sweep::Dataset& batch) {
        for (const sweep::Sample& s : batch.samples()) {
          ++expected.samples_per_arch[s.arch];
          if (s.is_quarantined()) continue;
          double& best = expected.best_by_pair[s.app + "/" + s.arch];
          best = std::max(best, s.speedup);
        }
      });
  return expected;
}

struct PassTimes {
  double study_s = 0.0;
  double analyze_s = 0.0;
  std::vector<double> query_ms;
  double task_s() const {
    double total = study_s + analyze_s;
    for (const double ms : query_ms) total += ms * 1e-3;
    return total;
  }
};

/// One pipeline pass. Only the stages are timed; the output checks and the
/// freeing of stage results between stages are not.
PassTimes pipeline_pass(const Setup& setup, const Expected& expected,
                        const Options& options, Tracer& tracer,
                        Report& report) {
  PassTimes times;
  Tracer::Span task = tracer.span("pipeline.task");
  sim::ModelRunner model;

  // Plan -> dataset -> store on disk.
  {
    TimingRunner timing(model);
    sim::Runner& runner = tracer.enabled() ? static_cast<sim::Runner&>(timing)
                                           : model;
    sweep::SweepHarness harness(runner, 4, study_seed(options.seed));
    sweep::Dataset dataset;
    const Clock::time_point start = Clock::now();
    {
      Tracer::Span study = tracer.span("sweep.run_study");
      // One span per setting, cut at the harness' per-setting progress
      // callback, each with a collapsed child for its runner calls.
      std::size_t done = 0;
      int setting = tracer.begin("sweep.setting");
      std::function<void(const std::string&)> progress;
      if (tracer.enabled()) {
        progress = [&](const std::string&) {
          const auto [ns, calls] = timing.take();
          tracer.collapsed(setting, "sim.eval", ns, calls);
          tracer.end(setting);
          setting =
              ++done < setup.settings ? tracer.begin("sweep.setting") : -1;
        };
      }
      dataset = harness.run_study(setup.plan, progress);
      tracer.end(setting);
    }
    {
      Tracer::Span save = tracer.span("store.save_store");
      dataset.save_store(setup.store_path);
    }
    times.study_s = seconds_since(start);

    std::map<std::string, std::size_t> per_arch;
    for (const sweep::Sample& s : dataset.samples()) ++per_arch[s.arch];
    const std::size_t quarantined = dataset.quarantined_count();
    report.check(per_arch == kTableII && expected.samples_per_arch == kTableII,
                 "per-arch sample counts differ from Table II "
                 "(53822 / 99707 / 90230)");
    report.count(setup.settings, settings_with_quarantine(dataset));
    if (tracer.enabled()) {
      report.layer("sim.evals", static_cast<double>(timing.total_calls()),
                   "count");
      report.layer("sweep.quarantined", static_cast<double>(quarantined),
                   "count");
      report.layer("store.file_bytes",
                   static_cast<double>(
                       std::filesystem::file_size(setup.store_path)), "bytes");
    }
  }

  // Store -> every analysis artefact (Table V/VI, Figs 2-4, RQ4 trends).
  // The analysis creates the nproc-lane pool it and the queries run on, as
  // a one-shot `omptune analyze` does; its teardown is not timed.
  std::uint64_t runtime_bytes = 0;
  std::unique_ptr<util::ThreadPool> pool;
  {
    const core::Study study(model);
    const Clock::time_point start = Clock::now();
    pool = std::make_unique<util::ThreadPool>(host_cpus());
    core::StudyResult result;
    {
      Tracer::Span analyze = tracer.span("core.analyze_store");
      const store::StoreReader reader(setup.store_path);
      result = study.analyze_store(reader, pool.get());
      runtime_bytes += reader.runtime_bytes_touched();
    }
    times.analyze_s = seconds_since(start);
    report.check(!result.per_app_influence.rows.empty() &&
                     !result.per_arch_influence.rows.empty() &&
                     !result.per_arch_app_influence.rows.empty() &&
                     !result.worst_trends.empty(),
                 "analysis produced an empty influence map or trend list");
    std::map<std::string, double> table_v;  // Table V upper ends
    for (const analysis::ArchAppRange& range : result.ranges_by_arch) {
      table_v[range.app + "/" + range.arch] = range.hi;
    }
    report.check(table_v == expected.best_by_pair,
                 "Table V best speedups differ from the collected samples'");
  }

  // One-shot queries, as `omptune query STORE APP ARCH` answers them.
  for (const auto& [app, arch] : setup.queries) {
    const Clock::time_point start = Clock::now();
    double best_speedup = 0.0;
    std::size_t matched = 0;
    std::vector<std::string> priority;
    {
      Tracer::Span query = tracer.span("core.one_shot_query");
      std::unique_ptr<store::StoreReader> reader;
      {
        Tracer::Span open = tracer.span("store.open");
        reader = std::make_unique<store::StoreReader>(setup.store_path);
      }
      store::StoreQuery filter;
      filter.app = app;
      filter.arch = arch;
      matched = reader->query(filter).size();
      std::unique_ptr<core::KnowledgeBase> kb;
      {
        Tracer::Span build = tracer.span("core.kb_build");
        kb = std::make_unique<core::KnowledgeBase>(*reader, arch, 1.01,
                                                   pool.get());
      }
      best_speedup = kb->best_known_speedup(app, arch);
      (void)kb->best_known_config(app, arch);
      priority = kb->variable_priority(app, arch);
      {
        Tracer::Span recommend = tracer.span("analysis.recommend");
        (void)analysis::recommend_for_app(*reader, app, 0.01, 1.3,
                                          pool.get());
      }
      runtime_bytes += reader->runtime_bytes_touched();
    }
    times.query_ms.push_back(seconds_since(start) * 1e3);
    const auto best = expected.best_by_pair.find(app + "/" + arch);
    const bool answered = matched > 0 && !priority.empty() &&
                          best != expected.best_by_pair.end() &&
                          best_speedup == best->second;
    report.check(answered, "one-shot query for " + app + " on " + arch +
                               " disagrees with the collected best speedup");
  }
  task.end();
  if (tracer.enabled()) {
    report.layer("store.runtime_bytes_read",
                 static_cast<double>(runtime_bytes), "bytes");
  }
  return times;
}

/// Traced-run extra: time each public analysis call Study::analyze_store is
/// built from, one by one on the same store and an nproc-lane pool, and the
/// whole analysis on a single lane. Runs after the passes; not part of any
/// task time.
void analysis_breakdown(const Setup& setup, Tracer& tracer, Report& report) {
  const util::ThreadPool pool(host_cpus());
  std::unique_ptr<store::StoreReader> reader;
  {
    Tracer::Span open = tracer.span("store.open");
    reader = std::make_unique<store::StoreReader>(setup.store_path);
  }
  {
    Tracer::Span best = tracer.span("analysis.best_per_setting");
    (void)analysis::best_per_setting(*reader, &pool);
  }
  sweep::Dataset dataset;
  {
    Tracer::Span load = tracer.span("store.load");
    dataset = reader->load(&pool);
  }
  const std::pair<analysis::Grouping, const char*> groupings[] = {
      {analysis::Grouping::PerApplication, "analysis.influence_per_app"},
      {analysis::Grouping::PerArchitecture, "analysis.influence_per_arch"},
      {analysis::Grouping::PerArchApplication,
       "analysis.influence_per_arch_app"},
  };
  for (const auto& [grouping, name] : groupings) {
    Tracer::Span fit = tracer.span(name);
    (void)analysis::influence_map(dataset, grouping, 1.01, {},
                                  &pool);
  }
  {
    Tracer::Span trends = tracer.span("analysis.worst_trends");
    (void)analysis::worst_trends(dataset);
  }
  dataset = sweep::Dataset();
  {
    sim::ModelRunner model;
    const util::ThreadPool one_lane(1);
    Tracer::Span serial = tracer.span("analysis.serial_analyze");
    (void)core::Study(model).analyze_store(*reader, &one_lane);
  }

  report.layer("store.load_s", tracer.total_s("store.load"), "s");
  report.layer("analysis.best_per_setting_s",
               tracer.total_s("analysis.best_per_setting"), "s");
  report.layer("analysis.influence_per_app_s",
               tracer.total_s("analysis.influence_per_app"), "s");
  report.layer("analysis.influence_per_arch_s",
               tracer.total_s("analysis.influence_per_arch"), "s");
  report.layer("analysis.influence_per_arch_app_s",
               tracer.total_s("analysis.influence_per_arch_app"), "s");
  report.layer("analysis.worst_trends_s",
               tracer.total_s("analysis.worst_trends"), "s");
  report.layer("analysis.serial_analyze_s",
               tracer.total_s("analysis.serial_analyze"), "s");
}

}  // namespace

void run_paper_pipeline(const Options& options, Tracer& tracer,
                        Report& report) {
  const auto make = [&] { return make_setup(options); };
  const std::unique_ptr<Setup> setup = timed_setup(report, make);
  const Expected expected = expected_outputs(*setup, options);
  report.reset_peak_rss();

  std::vector<PassTimes> traced;
  const PassSeries series = run_passes(options, tracer, [&] {
    const PassTimes times =
        pipeline_pass(*setup, expected, options, tracer, report);
    if (tracer.enabled()) traced.push_back(times);
    (void)timed_setup(report, make, 0.0);
    return times.task_s();
  });
  report.record_peak_rss();
  (void)timed_setup(report, make);
  if (!options.trace) {
    report.e2e("task_s", median(series.untraced), "s");
    return;
  }

  tracer.set_enabled(true);
  analysis_breakdown(*setup, tracer, report);
  native_layers(options, tracer, report);
  report_overhead(series, report);
  const double passes = static_cast<double>(traced.size());
  std::vector<double> study, analyze, query_ms;
  for (const PassTimes& times : traced) {
    study.push_back(times.study_s);
    analyze.push_back(times.analyze_s);
    query_ms.insert(query_ms.end(), times.query_ms.begin(),
                    times.query_ms.end());
  }
  report.layer("stage.study_s", median(study), "s");
  report.layer("stage.analyze_s", median(analyze), "s");
  report.layer("stage.query_ms", median(query_ms), "ms");
  report.layer("stage.queries", static_cast<double>(query_ms.size()), "count");
  report.layer("sim.eval_s", tracer.total_s("sim.eval") / passes, "s");
  report.layer("sweep.harness_self_s", (tracer.self_s("sweep.run_study") +
                                        tracer.self_s("sweep.setting")) /
                                           passes, "s");
  report.layer("store.encode_s", tracer.total_s("store.save_store") / passes,
               "s");
  report.layer("store.open_ms",
               median(tracer.durations_s("store.open")) * 1e3, "ms");
  report.layer("core.kb_build_ms",
               median(tracer.durations_s("core.kb_build")) * 1e3, "ms");
  report.layer("analysis.recommend_ms",
               median(tracer.durations_s("analysis.recommend")) * 1e3, "ms");
}

}  // namespace perfbench

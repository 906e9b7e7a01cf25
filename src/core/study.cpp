#include "core/study.hpp"

#include "store/reader.hpp"
#include "util/thread_pool.hpp"

namespace omptune::core {

Study::Study(sim::Runner& runner, StudyOptions options)
    : runner_(&runner), options_(options) {}

StudyResult Study::run_paper_study(
    const std::function<void(const std::string&)>& progress) const {
  return run(sweep::StudyPlan::paper_plan(), progress);
}

StudyResult Study::run(
    const sweep::StudyPlan& plan,
    const std::function<void(const std::string&)>& progress) const {
  sweep::SweepHarness harness(*runner_, options_.repetitions, options_.seed);
  return analyze(harness.run_study(plan, progress));
}

StudyResult Study::run_supervised(const sweep::StudyPlan& plan,
                                  const sweep::RunnerFactory& make_runner,
                                  sweep::SupervisorOptions supervisor_options,
                                  sweep::SupervisorReport* report,
                                  const util::ThreadPool* pool) const {
  supervisor_options.repetitions = options_.repetitions;
  supervisor_options.seed = options_.seed;
  sweep::StudySupervisor supervisor(make_runner,
                                    std::move(supervisor_options));
  sweep::Dataset dataset = supervisor.run(plan);
  if (report != nullptr) *report = supervisor.report();
  return analyze(std::move(dataset), pool);
}

namespace {

/// The ML/trend artefacts shared by both analyze paths: influence heat
/// maps and worst-performance trends over the non-quarantined samples.
void derive_model_artefacts(const sweep::Dataset& analysed,
                            const StudyOptions& options,
                            const util::ThreadPool* pool, StudyResult& result) {
  std::vector<analysis::InfluenceMap> maps = analysis::influence_maps(
      analysed,
      {analysis::Grouping::PerApplication, analysis::Grouping::PerArchitecture,
       analysis::Grouping::PerArchApplication},
      options.label_threshold, {}, pool);
  result.per_app_influence = std::move(maps[0]);
  result.per_arch_influence = std::move(maps[1]);
  result.per_arch_app_influence = std::move(maps[2]);
  result.worst_trends = analysis::worst_trends(analysed);
}

}  // namespace

StudyResult Study::analyze(sweep::Dataset dataset,
                           const util::ThreadPool* pool) const {
  StudyResult result;
  // Quarantined samples (failed collection, placeholder values) stay in
  // result.dataset for provenance but are excluded from every derived
  // artefact — their zeroed runtimes/speedups are not measurements.
  sweep::Dataset clean_copy;
  const sweep::Dataset* analysed = &dataset;
  if (dataset.quarantined_count() > 0) {
    clean_copy = dataset.ok_samples();
    analysed = &clean_copy;
  }
  result.upshot = analysis::upshot_by_arch(*analysed);
  result.ranges_by_arch = analysis::speedup_ranges_by_arch(*analysed);
  result.ranges_by_app = analysis::speedup_ranges_by_app(*analysed);
  derive_model_artefacts(*analysed, options_, pool, result);
  result.dataset = std::move(dataset);
  return result;
}

StudyResult Study::analyze_store(const store::StoreReader& reader,
                                 const util::ThreadPool* pool) const {
  StudyResult result;
  // The speedup artefacts never materialize a Sample: per-setting bests are
  // aggregated off the store's column slices (quarantined rows skipped, as
  // in analyze()), and the table/upshot reductions reuse those bests.
  const std::vector<analysis::SettingBest> bests =
      analysis::best_per_setting(reader, pool);
  result.upshot = analysis::upshot_by_arch(bests);
  result.ranges_by_arch = analysis::speedup_ranges_by_arch(bests);
  result.ranges_by_app = analysis::speedup_ranges_by_app(bests);

  // The ML artefacts consume Samples; materialize rows in parallel once.
  sweep::Dataset dataset = reader.load(pool);
  sweep::Dataset clean_copy;
  const sweep::Dataset* analysed = &dataset;
  if (dataset.quarantined_count() > 0) {
    clean_copy = dataset.ok_samples();
    analysed = &clean_copy;
  }
  derive_model_artefacts(*analysed, options_, pool, result);
  result.dataset = std::move(dataset);
  return result;
}

}  // namespace omptune::core

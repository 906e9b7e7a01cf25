// durable_collection: the A64FX part of paper_pipeline's Table II plan
// (53,822 samples), under the same seed, collected through StudySupervisor
// with nproc-1 forked workers writing a journal (one fsynced CSV entry per
// setting), then StudyJournal::compact into one .omps store. No analysis.
// One task is supervise + compact; task_s is its median over the passes
// that fit the window (at least one). The whole plan took 6-10 s a pass,
// so a run held four passes and its median followed the host's noise; the
// A64FX part takes about a second.
// Set-up (timed) builds the plan and the supervisor options. After it, the
// plan is collected once the direct way (single process, no journal) into
// an order-independent digest of its rows; the compacted store must match
// that digest.
// One operation is one setting: it fails when a worker crashed or hung
// while holding it, or when it holds a quarantined sample.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "arch/cpu_arch.hpp"
#include "bench.hpp"
#include "sim/executor.hpp"
#include "store/compact.hpp"
#include "sweep/harness.hpp"
#include "sweep/journal.hpp"
#include "sweep/supervisor.hpp"
#include "trace.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace omptune;

/// Order-independent digest of a dataset's rows in the open-data CSV form.
/// The rows are compared in CSV form because the journal keeps each
/// setting as CSV text (runtimes to 9 significant digits, speedups to 6):
/// the durable path's doubles are the direct path's rounded to those digits.
/// The journal also orders entries by file name, so row order differs.
struct RowDigest {
  std::size_t rows = 0;
  std::uint64_t sum = 0;
  std::uint64_t mix = 0;

  void add(const sweep::Dataset& dataset) {
    const util::CsvTable table = dataset.to_csv();
    for (std::size_t i = 0; i < table.num_rows(); ++i) {
      std::string line;
      for (const std::string& cell : table.row(i)) {
        line += cell;
        line += '\x1f';
      }
      const std::uint64_t h = util::stable_hash(line);
      sum += h;
      mix ^= util::hash_combine(h, 0x9e3779b97f4a7c15ull);
      ++rows;
    }
  }
  bool operator==(const RowDigest&) const = default;
};

struct Setup {
  sweep::StudyPlan plan;
  sweep::SupervisorOptions supervisor;
  std::string store_path;
};

std::unique_ptr<Setup> make_setup(const Options& options) {
  auto setup = std::make_unique<Setup>();
  setup->plan = sweep::StudyPlan::paper_plan();
  std::erase_if(setup->plan.arch_plans, [](const sweep::ArchPlan& arch_plan) {
    return arch_plan.arch != arch::ArchId::A64FX;
  });
  setup->supervisor.workers = static_cast<int>(std::max(1u, host_cpus() - 1));
  setup->supervisor.journal_dir =
      (std::filesystem::path(options.workdir) / "journal").string();
  setup->supervisor.repetitions = 4;
  setup->supervisor.seed = study_seed(options.seed);
  setup->store_path =
      (std::filesystem::path(options.workdir) / "durable.omps").string();
  return setup;
}

/// Settings that failed in one pass. A crash or hang kill interrupts the
/// one setting its worker held; the store is only read when it holds a
/// quarantined sample.
std::size_t failed_settings(const Setup& setup,
                            const sweep::SupervisorReport& supervised,
                            const store::CompactReport& compacted) {
  std::size_t failed = supervised.worker_crashes + supervised.hang_kills;
  if (compacted.quarantined > 0) {
    failed += settings_with_quarantine(
        sweep::Dataset::load_store(setup.store_path));
  }
  return std::min(failed, supervised.settings_total);
}

double durable_pass(const Setup& setup, Tracer& tracer, Report& report) {
  std::filesystem::remove_all(setup.supervisor.journal_dir);
  const Clock::time_point start = Clock::now();
  sweep::SupervisorReport supervised;
  store::CompactReport compacted;
  {
    Tracer::Span task = tracer.span("durable.task");
    {
      Tracer::Span run = tracer.span("sweep.supervisor_run");
      sweep::StudySupervisor supervisor(
          [] { return std::make_unique<sim::ModelRunner>(); },
          setup.supervisor);
      (void)supervisor.run(setup.plan);
      supervised = supervisor.report();
    }

    Tracer::Span compact = tracer.span("store.compact");
    compacted = sweep::StudyJournal(setup.supervisor.journal_dir)
                    .compact(setup.store_path);
  }
  const double task_s = seconds_since(start);

  report.check(!supervised.interrupted &&
                   supervised.settings_completed == supervised.settings_total,
               "supervised study did not complete every setting");
  report.count(supervised.settings_total,
               failed_settings(setup, supervised, compacted));
  if (tracer.enabled()) {
    const sweep::StudyJournal journal(setup.supervisor.journal_dir);
    std::uintmax_t journal_bytes = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(setup.supervisor.journal_dir)) {
      if (entry.is_regular_file()) journal_bytes += entry.file_size();
    }
    report.layer("sweep.journal_entries",
                 static_cast<double>(journal.entry_files().size()), "count");
    report.layer("sweep.journal_bytes", static_cast<double>(journal_bytes),
                 "bytes");
    report.layer("sweep.worker_crashes",
                 static_cast<double>(supervised.worker_crashes), "count");
    report.layer("sweep.worker_respawns",
                 static_cast<double>(supervised.respawns), "count");
    report.layer("sweep.quarantined",
                 static_cast<double>(compacted.quarantined), "count");
    report.layer("store.compact_samples_in",
                 static_cast<double>(compacted.samples_in), "count");
    report.layer("store.file_bytes",
                 static_cast<double>(
                     std::filesystem::file_size(setup.store_path)), "bytes");
  }
  return task_s;
}

}  // namespace

void run_durable_collection(const Options& options, Tracer& tracer,
                            Report& report) {
  const auto make = [&] { return make_setup(options); };
  const std::unique_ptr<Setup> setup = timed_setup(report, make);
  RowDigest direct;
  collect_by_setting(setup->plan, setup->supervisor.seed,
                     [&](const sweep::Dataset& batch) { direct.add(batch); });
  report.reset_peak_rss();

  const PassSeries series = run_passes(options, tracer, [&] {
    const double task_s = durable_pass(*setup, tracer, report);
    (void)timed_setup(report, make, 0.0);
    return task_s;
  });
  report.record_peak_rss();
  (void)timed_setup(report, make);
  if (!options.trace) {
    report.e2e("task_s", median(series.untraced), "s");
  } else {
    const double passes = static_cast<double>(series.traced.size());
    report_overhead(series, report);
    report.layer("stage.study_s", median(series.traced), "s");
    report.layer("sweep.supervisor_run_s",
                 tracer.total_s("sweep.supervisor_run") / passes, "s");
    report.layer("store.compact_s", tracer.total_s("store.compact") / passes,
                 "s");
  }
  // Every pass writes the same store; check the last one.
  RowDigest durable;
  durable.add(sweep::Dataset::load_store(setup->store_path));
  report.check(durable == direct,
               "compacted durable rows differ from the direct path's");
}

}  // namespace perfbench

#pragma once

// Shared plumbing of the perfbench workloads: run options, the report a
// workload fills (metrics, output checks, failure accounting) and small
// timing/statistics helpers.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sweep/harness.hpp"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< measurement window
  bool trace = false;     ///< per-layer run (spans on) instead of end-to-end
  std::string workdir;    ///< private scratch directory of this run
  std::string trace_path; ///< Chrome trace-event output of a traced run
};

/// What one workload run measured and verified.
class Report {
 public:
  /// End-to-end metric (printed with --trace 0).
  void e2e(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric (printed with --trace 1). run.py checks the name and
  /// unit against BENCHMARK.json's per_layer list.
  void layer(const std::string& name, double value, const std::string& unit);
  /// One set-up sample's median set-up time; setup_s is the median of the
  /// run's samples.
  void setup_sample(double seconds) { setup_samples_.push_back(seconds); }
  const std::vector<double>& setup_samples() const { return setup_samples_; }
  /// An output check: a false `ok` makes the run incorrect and is reported.
  void check(bool ok, const std::string& what);
  /// Failure accounting behind success_ratio: `n` operations attempted, of
  /// which `failed` failed (quarantined, crashed, shed, mismatched...).
  void count(std::uint64_t n, std::uint64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }
  /// Start the peak-RSS window after set-up: release the heap's free
  /// memory (set-up churn) and reset the kernel's high-water mark.
  void reset_peak_rss();
  /// Freeze peak RSS at the end of the measured work, before any
  /// verification-only work or set-up inflates it: the larger of this
  /// process's high-water mark and that of its largest waited-for child
  /// (the forked study workers; set-up forks none).
  void record_peak_rss();

  bool correct() const { return check_failures_.empty(); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double peak_rss_mb() const { return peak_rss_mb_; }
  const std::vector<std::string>& check_failures() const {
    return check_failures_;
  }

  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  const std::map<std::string, Metric>& e2e_metrics() const { return e2e_; }
  const std::map<std::string, Metric>& layer_metrics() const { return layers_; }

 private:
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layers_;
  std::vector<std::string> check_failures_;
  std::vector<double> setup_samples_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  double peak_rss_mb_ = 0.0;
};

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);

/// One set-up sample: at least kSetupReps set-ups, and more while they
/// have taken less than the sample's minimum time, kSetupSampleS unless
/// given (up to kSetupMaxReps).
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kSetupMaxReps = 100000;
constexpr double kSetupSampleS = 0.25;

/// Time one set-up sample of `make`, record the sample's median in
/// `report`, and return the last state; setup_s is the median of the run's
/// samples. Earlier states are destroyed before the next call starts,
/// outside the timed region. `make` builds only what the program needs to
/// run the workload; expected outputs are derived outside it. The host's
/// speed moves in phases, and a microsecond set-up sits in one of two modes
/// that follow them for seconds at a time. So every workload takes a
/// sample before and after its window, and the pass-based ones a short one
/// after every pass, outside its timing: the median of many samples follows
/// the share of the run spent in each mode instead of jumping between them.
template <typename Make>
auto timed_setup(Report& report, Make make,
                 double min_sample_s = kSetupSampleS) -> decltype(make()) {
  decltype(make()) state;
  std::vector<double> times;
  double total_s = 0.0;
  while (times.size() < kSetupReps ||
         (total_s < min_sample_s && times.size() < kSetupMaxReps)) {
    state.reset();
    const Clock::time_point start = Clock::now();
    state = make();
    const double seconds = seconds_since(start);
    times.push_back(seconds);
    total_s += seconds;
  }
  report.setup_sample(median(std::move(times)));
  return state;
}

/// Number of online CPUs (at least 1).
unsigned host_cpus();

/// Seed of the collected study for a workload seed (the harness takes a
/// 64-bit master seed; the benchmark seeds are small integers).
std::uint64_t study_seed(std::uint64_t workload_seed);

/// The direct model-mode collection of `plan` (4 repetitions), one setting
/// at a time: SweepHarness::run_study's loop body, without assembling one
/// dataset. `visit` sees each setting's batch. Workloads derive expected
/// outputs from it without holding the whole dataset.
void collect_by_setting(
    const omptune::sweep::StudyPlan& plan, std::uint64_t seed,
    const std::function<void(const omptune::sweep::Dataset&)>& visit);

/// Distinct settings (arch, app, input, threads) holding a quarantined
/// sample: the failed operations of a collection.
std::size_t settings_with_quarantine(const omptune::sweep::Dataset& dataset);

void run_paper_pipeline(const Options& options, Tracer& tracer, Report& report);
void run_durable_collection(const Options& options, Tracer& tracer,
                            Report& report);
void run_serve_swap(const Options& options, Tracer& tracer, Report& report);
/// One traced pass over the native slice for `options.seed`, outside any
/// measurement window: reports the rt and apps per-layer metrics and checks
/// every checksum, but counts no operations.
void native_layers(const Options& options, Tracer& tracer, Report& report);

}  // namespace perfbench

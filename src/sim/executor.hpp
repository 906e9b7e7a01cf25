#pragma once

// Unified execution interface for the study: a Runner produces a runtime
// measurement for (application, input, architecture, configuration).
//
//  - ModelRunner evaluates the calibrated performance model (microseconds
//    per sample: the full 240k-sample study runs in seconds, deterministic).
//  - NativeRunner executes the real kernel through the runtime substrate on
//    the current host and reports wall-clock time. Problem sizes are shrunk
//    by `native_scale` and thread counts capped for test hosts.
//
// Only ModelRunner declares concurrent(): the study harness then collects
// settings on several lanes at once. A NativeRunner measures wall time on
// a shared host (and keeps its last checksum), so it stays serial.

#include <cstdint>
#include <memory>

#include "apps/application.hpp"
#include "arch/cpu_arch.hpp"
#include "rt/config.hpp"
#include "sim/perf_model.hpp"

namespace omptune::sim {

class Runner {
 public:
  virtual ~Runner() = default;

  /// One runtime measurement in seconds.
  virtual double run(const apps::Application& app, const apps::InputSize& input,
                     const arch::CpuArch& cpu, const rt::RtConfig& config,
                     std::uint64_t batch_seed, int repetition,
                     std::uint64_t sample_index) = 0;

  /// Whether run() may be called from several threads at once. A runner
  /// that says so lets sweep::SweepHarness::run_study collect settings
  /// concurrently; the default keeps every call on the calling thread, in
  /// plan order (stateful, timing and fault-injecting runners).
  virtual bool concurrent() const { return false; }
};

/// Deterministic model-based runner (the default study engine).
class ModelRunner final : public Runner {
 public:
  explicit ModelRunner(PerfModel model = PerfModel()) : model_(model) {}

  double run(const apps::Application& app, const apps::InputSize& input,
             const arch::CpuArch& cpu, const rt::RtConfig& config,
             std::uint64_t batch_seed, int repetition,
             std::uint64_t sample_index) override;

  /// The model is pure in its arguments: safe from any number of threads.
  bool concurrent() const override { return true; }

  const PerfModel& model() const { return model_; }

 private:
  PerfModel model_;
};

/// Wall-clock runner executing the real kernels through the runtime.
class NativeRunner final : public Runner {
 public:
  /// `native_scale` shrinks problem sizes; `max_threads` caps team sizes so
  /// oversubscription on small hosts stays bounded (0 = no cap).
  explicit NativeRunner(double native_scale = 0.05, int max_threads = 8)
      : native_scale_(native_scale), max_threads_(max_threads) {}

  double run(const apps::Application& app, const apps::InputSize& input,
             const arch::CpuArch& cpu, const rt::RtConfig& config,
             std::uint64_t batch_seed, int repetition,
             std::uint64_t sample_index) override;

  /// Checksum of the last run, for validation.
  double last_checksum() const { return last_checksum_; }

 private:
  double native_scale_;
  int max_threads_;
  double last_checksum_ = 0.0;
};

}  // namespace omptune::sim

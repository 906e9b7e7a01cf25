// The native slice behind paper_pipeline's traced rt and apps metrics: a
// seed-chosen configuration slice across all 15 applications, executed for
// real on sim::NativeRunner (rt::ThreadTeam teams capped at nproc / 2) at a
// fixed native scale. The slice varies KMP_LIBRARY/KMP_BLOCKTIME,
// OMP_SCHEDULE, KMP_FORCE_REDUCTION and KMP_ALIGN_ALLOC; placement stays at
// the defaults. Per app it holds the default plus kSlots configurations in
// which every (library, blocktime) pair and every schedule, reduction and
// alignment value appears a fixed number of times; the seed only chooses
// how they pair up, so every seed asks for the same mix of work. Every
// run's checksum must equal the serial run_reference checksum (exactly
// where the app declares deterministic_checksum(), else within 1e-9
// relative).
//
// The slice is not a workload of its own: its 2-thread teams wait on each
// other at every barrier, so a timed pass followed the host's drift several
// times over (see README.md, Steadiness). paper_pipeline's traced run makes
// one pass over it after its window.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "apps/application.hpp"
#include "arch/cpu_arch.hpp"
#include "bench.hpp"
#include "sim/executor.hpp"
#include "sweep/config_space.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace omptune;

constexpr double kNativeScale = 1.0;
constexpr std::size_t kSlots = 12;  // non-default configurations per app

struct Job {
  const apps::Application* app = nullptr;
  apps::InputSize input;
  double reference = 0.0;
  std::vector<rt::RtConfig> configs;  ///< the default first
};

struct Setup {
  const arch::CpuArch* cpu = nullptr;
  int max_threads = 1;
  std::vector<Job> jobs;
};

/// `values` repeated cyclically to kSlots entries, in seed-chosen order.
template <typename T>
std::vector<T> shuffled_slots(const std::vector<T>& values,
                              util::Xoshiro256& rng) {
  std::vector<T> slots;
  for (std::size_t i = 0; i < kSlots; ++i) {
    slots.push_back(values[i % values.size()]);
  }
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    std::swap(slots[i], slots[rng.uniform_index(i + 1)]);
  }
  return slots;
}

std::unique_ptr<Setup> make_setup(const Options& options) {
  auto setup = std::make_unique<Setup>();
  setup->cpu = &arch::architecture(arch::ArchId::Skylake);
  // Most of the slice spins without yielding; teams that leave CPUs free
  // keep one busy process elsewhere on the host from stalling a barrier for
  // a whole scheduler time slice.
  setup->max_threads = static_cast<int>(std::max(1u, host_cpus() / 2));
  const sweep::ConfigSpace space = sweep::ConfigSpace::paper_space(*setup->cpu);
  util::Xoshiro256 rng(study_seed(options.seed));
  for (const apps::Application* app : apps::registry()) {
    Job job;
    job.app = app;
    job.input = app->input_sizes().front();
    rt::RtConfig config = rt::RtConfig::defaults_for(*setup->cpu);
    config.num_threads = setup->max_threads;
    job.configs.push_back(config);
    const auto schedules = shuffled_slots(space.schedules, rng);
    const auto reductions = shuffled_slots(space.reductions, rng);
    const auto aligns = shuffled_slots(space.aligns, rng);
    const std::size_t libraries = space.libraries.size();
    for (std::size_t i = 0; i < kSlots; ++i) {
      const std::size_t wait = i % (libraries * space.blocktimes_ms.size());
      config.library = space.libraries[wait % libraries];
      config.blocktime_ms = space.blocktimes_ms[wait / libraries];
      config.schedule = schedules[i];
      config.reduction = reductions[i];
      config.align_alloc = aligns[i];
      job.configs.push_back(config);
    }
    setup->jobs.push_back(std::move(job));
  }
  return setup;
}

/// The serial run_reference checksum of each job, and their total time.
double run_references(Setup& setup) {
  const Clock::time_point start = Clock::now();
  for (Job& job : setup.jobs) {
    job.reference = job.app->run_reference(job.input, kNativeScale);
  }
  return seconds_since(start);
}

bool checksum_matches(const apps::Application& app, double native,
                      double reference) {
  if (app.deterministic_checksum()) return native == reference;
  return std::abs(native - reference) <=
         1e-9 * std::max(1.0, std::abs(reference));
}

}  // namespace

/// One traced pass over the slice, every run through NativeRunner::run:
/// each run is a "sim.native_run" span with a collapsed "apps.run_native"
/// child of the kernel time run() returns, so the span's self time is the
/// team's construction and teardown.
void native_layers(const Options& options, Tracer& tracer, Report& report) {
  const std::unique_ptr<Setup> setup = make_setup(options);
  const double reference_s = run_references(*setup);
  sim::NativeRunner runner(kNativeScale, setup->max_threads);
  std::uint64_t runs = 0, mismatches = 0;
  tracer.set_enabled(true);
  {
    const Tracer::Span task = tracer.span("native.task");
    for (const Job& job : setup->jobs) {
      for (const rt::RtConfig& config : job.configs) {
        {
          const Tracer::Span run = tracer.span("sim.native_run");
          const double kernel_s =
              runner.run(*job.app, job.input, *setup->cpu, config, 0, 0, 0);
          tracer.collapsed(run.id(), "apps.run_native",
                           static_cast<std::int64_t>(kernel_s * 1e9), 1);
        }
        ++runs;
        if (!checksum_matches(*job.app, runner.last_checksum(),
                              job.reference)) {
          ++mismatches;
        }
      }
    }
  }
  tracer.set_enabled(false);
  report.check(mismatches == 0,
               std::to_string(mismatches) +
                   " native runs disagree with the run_reference checksum");
  report.layer("apps.runs", static_cast<double>(runs), "count");
  report.layer("apps.checksum_mismatches", static_cast<double>(mismatches),
               "count");
  report.layer("rt.team_create_us",
               tracer.self_s("sim.native_run") / static_cast<double>(runs) *
                   1e6, "us");
  report.layer("apps.kernel_s", tracer.total_s("apps.run_native"), "s");
  report.layer("apps.reference_s", reference_s, "s");
}

}  // namespace perfbench

#include "sim/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "util/rng.hpp"

namespace omptune::sim {

namespace {

using apps::AppCharacteristics;
using apps::ParallelismKind;
using arch::CpuArch;
using rt::RtConfig;
using rt::ScheduleKind;
using rt::WaitPolicy;

/// Reference machine for AppCharacteristics::base_seconds.
constexpr double kReferenceClockGhz = 2.4;  // Skylake 6148

/// Memory bandwidth one thread can consume (GB/s) — sets the saturation
/// thread count sat = mem_bw / kPerThreadBw.
constexpr double kPerThreadBwGbs = 10.0;

/// Context-switch tax per extra thread stacked on one core.
constexpr double kOversubscriptionTax = 0.12;

/// Residual imbalance after dynamic/guided rebalancing.
constexpr double kDynamicResidual = 0.06;
constexpr double kGuidedResidual = 0.12;

/// Fraction of tasks that end in a steal/idle episode, as a function of
/// imbalance.
double steal_fraction(double imbalance) {
  return std::clamp(0.25 + 0.8 * imbalance, 0.0, 0.95);
}

/// Placement statistics are pure in (arch, places, bind, threads) and the
/// model evaluates millions of configurations per sweep — memoize them.
/// The shared memo is locked; each thread keeps its own front of pointers
/// into it (map nodes never move), so lanes collecting settings at once
/// only take the lock on their first sight of a key.
const arch::PlacementStats& cached_placement_stats(const CpuArch& cpu,
                                                   arch::PlacesKind places,
                                                   arch::BindKind bind,
                                                   int threads) {
  using Key = std::tuple<arch::ArchId, arch::PlacesKind, arch::BindKind, int>;
  static std::map<Key, arch::PlacementStats> cache;
  static std::mutex mutex;
  thread_local std::map<Key, const arch::PlacementStats*> front;

  const Key key{cpu.id, places, bind, threads};
  const auto hit = front.find(key);
  if (hit != front.end()) return *hit->second;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const arch::Topology topo(cpu);
    it = cache.emplace(key, arch::placement_stats(topo, places, bind, threads))
             .first;
  }
  front.emplace(key, &it->second);
  return it->second;
}

/// Latency (us) a waiting thread pays per idle episode before it acquires
/// new work, per wait policy.
double idle_latency_us(const rt::CalibrationTable& cal, const CpuArch& cpu,
                       const RtConfig& config) {
  switch (config.wait_policy()) {
    case WaitPolicy::Active:
      // Turnaround spins without yielding: near-immediate pickup.
      // blocktime=infinite in throughput mode still yields between polls.
      return config.library == rt::LibraryMode::Turnaround
                 ? cal.idle_active_us
                 : cal.idle_active_us +
                       cal.idle_yield_factor * cpu.yield_latency_us;
    case WaitPolicy::SpinThenSleep:
      // Gaps shorter than the blocktime behave like yielding spin.
      return cal.idle_active_us + cal.idle_yield_factor * cpu.yield_latency_us;
    case WaitPolicy::Passive:
      return cpu.sleep_latency_us;
  }
  return cpu.sleep_latency_us;
}

/// Cost (seconds) of forking/joining one parallel region.
double region_cost_seconds(const rt::CalibrationTable& cal, const CpuArch& cpu,
                           const RtConfig& config, int threads) {
  const double t = static_cast<double>(threads);
  double us = 0.0;
  switch (config.wait_policy()) {
    case WaitPolicy::Active:
      us = cal.region_active_base_us + cal.region_active_per_thread_us * t;
      break;
    case WaitPolicy::SpinThenSleep:
      // Workers usually still spinning between close-by regions; a small
      // fraction has slept (long gaps).
      us = cal.region_spin_base_us + cal.region_spin_per_thread_us * t +
           cal.region_spin_sleep_frac * cpu.sleep_latency_us;
      break;
    case WaitPolicy::Passive:
      // Thundering-herd wake-up of the whole team.
      us = cpu.sleep_latency_us + cal.region_passive_per_thread_us * t;
      break;
  }
  return us * 1e-6;
}

/// Cost (seconds) of one team-wide reduction with the given method.
double reduction_cost_seconds(const rt::CalibrationTable& cal,
                              const CpuArch& cpu, rt::ReductionMethod method,
                              int threads) {
  const double t = static_cast<double>(threads);
  const double hop_us =
      cal.reduction_hop_base_us +
      cal.reduction_hop_numa_us * (cpu.numa_nodes > 2 ? 1.0 : 0.0);
  switch (method) {
    case rt::ReductionMethod::Tree:
      return (std::log2(std::max(2.0, t)) * 2.0 * hop_us) * 1e-6;
    case rt::ReductionMethod::Critical:
      return (t * 0.6 * hop_us) * 1e-6;
    case rt::ReductionMethod::Atomic:
      // CAS retries grow mildly superlinearly with contention.
      return (t * 0.35 * hop_us * (1.0 + t / 256.0)) * 1e-6;
    case rt::ReductionMethod::Default:
      break;
  }
  return 0.0;  // unreachable: caller resolves Default first
}

}  // namespace

ModelBreakdown PerfModel::breakdown(const apps::Application& app,
                                    const apps::InputSize& input,
                                    const CpuArch& cpu,
                                    const RtConfig& config) const {
  const AppCharacteristics c = app.characteristics(input);
  const int threads = config.effective_num_threads(cpu);
  const arch::PlacementStats& placement = cached_placement_stats(
      cpu, config.places, config.effective_bind(), threads);

  ModelBreakdown b;

  // ---- 1. architecture-scaled serial work --------------------------------
  const double compute_scale = kReferenceClockGhz / cpu.clock_ghz;
  const double mem_scale = cpu.serial_mem_factor;
  const double w_compute = c.base_seconds * (1.0 - c.mem_intensity) * compute_scale;
  const double w_memory = c.base_seconds * c.mem_intensity * mem_scale;
  const double total_w = w_compute + w_memory;
  b.serial_seconds = total_w * c.serial_fraction;
  const double par_compute = w_compute * (1.0 - c.serial_fraction);
  const double par_memory = w_memory * (1.0 - c.serial_fraction);

  // Locality and contention only bite once the working set escapes the
  // last-level caches and local memory pools; cache-resident inputs are
  // insensitive to NUMA placement.
  const double mem_pressure = std::clamp(c.working_set_mb / 1500.0, 0.0, 1.0);

  // ---- 2. placement: usable parallelism, oversubscription, locality ------
  // Threads stacked on the same core time-share it (master binding with
  // core-granularity places collapses the whole team onto one core).
  const double usable =
      std::min<double>(threads / std::max(1.0, placement.max_threads_per_core),
                       cpu.cores);
  b.oversubscription_factor =
      1.0 + kOversubscriptionTax * (placement.max_threads_per_core - 1.0);

  // Memory bandwidth available to the team: covered NUMA domains only.
  const double numa_share =
      static_cast<double>(placement.distinct_numa) / cpu.numa_nodes;
  const double sat_threads =
      std::max(1.0, cpu.mem_bw_gbs * numa_share / kPerThreadBwGbs);

  // Locality: unbound threads migrate and dilute first-touch locality.
  if (!placement.bound) {
    b.locality_factor = 1.0 + c.numa_sensitivity * cpu.unbound_locality_loss *
                                  (cpu.numa_remote_penalty - 1.0) *
                                  mem_pressure *
                                  (cpu.numa_nodes > 1 ? 1.0 : 0.0);
  } else {
    // Bound but uneven NUMA population also costs a little.
    b.locality_factor = 1.0 + c.numa_sensitivity * 0.15 *
                                  (1.0 - placement.numa_balance) *
                                  mem_pressure * (cpu.numa_remote_penalty - 1.0);
  }

  // Queueing contention once demand exceeds the covered bandwidth. Remote
  // traffic (the locality loss) additionally amplifies it.
  const double mem_demand_threads = std::min(usable, static_cast<double>(threads));
  if (mem_demand_threads > sat_threads && c.mem_intensity > 0.05) {
    const double overshoot = (mem_demand_threads - sat_threads) / sat_threads;
    b.contention_factor =
        1.0 + cpu.bw_contention * overshoot * (0.5 + 0.5 * b.locality_factor);
  }

  // ---- 3. schedule: residual imbalance + coordination ---------------------
  // Task apps: work stealing rebalances the tree; only a small residual
  // remains (the imbalance instead drives the steal/idle rate below).
  double residual_imbalance = app.kind() == ParallelismKind::Task
                                  ? c.load_imbalance * 0.15
                                  : c.load_imbalance;
  double coordination = 0.0;
  if (app.kind() == ParallelismKind::Loop) {
    const double grab_contention = 1.0 + static_cast<double>(threads) / 48.0;
    const double chunk =
        config.chunk > 0 ? static_cast<double>(config.chunk) : 1.0;
    switch (config.schedule) {
      case ScheduleKind::Static:
      case ScheduleKind::Auto:
        residual_imbalance = c.load_imbalance;
        break;
      case ScheduleKind::Dynamic:
        residual_imbalance = c.load_imbalance * kDynamicResidual;
        coordination = c.base_seconds * (c.iteration_rate / chunk) *
                       cal_.chunk_grab_us * grab_contention * 1e-6;
        break;
      case ScheduleKind::Guided:
        residual_imbalance = c.load_imbalance * kGuidedResidual;
        // ~log chunks per thread: coordination is much cheaper.
        coordination = c.base_seconds *
                       (8.0 * threads * std::log2(2.0 + c.iteration_rate)) *
                       cal_.chunk_grab_us * 1e-6;
        break;
    }
  }
  b.imbalance_factor = 1.0 + residual_imbalance;
  b.schedule_coordination_seconds = coordination;

  // ---- 4. wait policy ------------------------------------------------------
  if (app.kind() == ParallelismKind::Task) {
    // Per-steal idle latency relative to task granularity.
    const double latency = idle_latency_us(cal_, cpu, config);
    b.task_idle_factor =
        1.0 + steal_fraction(c.load_imbalance) * latency /
                  std::max(0.5, c.task_granularity_us);
  }
  b.region_overhead_seconds = c.base_seconds * c.region_rate *
                              region_cost_seconds(cal_, cpu, config, threads);

  // ---- 5. reductions -------------------------------------------------------
  const rt::ReductionMethod method = config.reduction_method_for(threads);
  b.reduction_overhead_seconds =
      c.base_seconds * c.reduction_rate *
      reduction_cost_seconds(cal_, cpu, method, threads);

  // ---- 6. alignment --------------------------------------------------------
  // KMP_ALIGN_ALLOC defaults to the cache line. Larger alignment slightly
  // de-conflicts the runtime's hot internal structures for allocation-heavy
  // apps, at a small footprint cost; below-cacheline alignment (not in the
  // sweep) would false-share.
  const double align_ratio = static_cast<double>(config.effective_align(cpu)) /
                             cpu.cacheline_bytes;
  if (align_ratio >= 1.0) {
    const double benefit = 0.006 * c.alloc_intensity * std::log2(align_ratio);
    const double footprint = 0.0015 * (align_ratio - 1.0) *
                             (c.working_set_mb > 100.0 ? 1.0 : 0.4);
    b.align_factor = 1.0 - benefit + footprint;
  } else {
    b.align_factor = 1.0 + 0.05 * c.alloc_intensity;
  }

  // ---- compose -------------------------------------------------------------
  b.compute_seconds = par_compute / usable * b.imbalance_factor *
                      b.oversubscription_factor * b.task_idle_factor;
  const double mem_speedup = std::min(mem_demand_threads, sat_threads);
  b.memory_seconds = par_memory / mem_speedup * b.imbalance_factor *
                     b.oversubscription_factor * b.task_idle_factor *
                     b.locality_factor * b.contention_factor;

  b.total_seconds = (b.serial_seconds + b.compute_seconds + b.memory_seconds +
                     b.region_overhead_seconds + b.reduction_overhead_seconds +
                     b.schedule_coordination_seconds) *
                    b.align_factor;
  return b;
}

double PerfModel::predict(const apps::Application& app,
                          const apps::InputSize& input, const CpuArch& cpu,
                          const RtConfig& config) const {
  return breakdown(app, input, cpu, config).total_seconds;
}

double PerfModel::measure(const apps::Application& app,
                          const apps::InputSize& input, const CpuArch& cpu,
                          const RtConfig& config, std::uint64_t batch_seed,
                          int repetition, std::uint64_t sample_index) const {
  const double clean = predict(app, input, cpu, config);

  // Per-sample log-normal noise.
  util::Xoshiro256 rng(util::hash_combine(
      util::hash_combine(batch_seed, sample_index),
      static_cast<std::uint64_t>(repetition) * 0x9E3779B9ULL + 1));
  double noisy = clean * rng.lognormal_factor(cpu.noise_sigma);

  // Systematic per-repetition drift (shared X86 cluster): every sample in
  // repetition R of a batch shares the same bias factor, so two repetitions
  // differ consistently — what the paper's Wilcoxon test flags on Milan and
  // Skylake but not on the single-user A64FX nodes.
  if (cpu.repetition_drift > 0.0) {
    util::Xoshiro256 drift_rng(util::hash_combine(
        batch_seed, 0xD21F7ULL + static_cast<std::uint64_t>(repetition)));
    noisy *= drift_rng.lognormal_factor(cpu.repetition_drift);
  }
  return noisy;
}

}  // namespace omptune::sim

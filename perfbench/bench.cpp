// Report, statistics and collection helpers shared by the workloads.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "sim/executor.hpp"
#include "util/rng.hpp"

namespace perfbench {

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  e2e_[name] = Metric{value, unit};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_[name] = Metric{value, unit};
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) check_failures_.push_back(what);
}

void Report::reset_peak_rss() {
  ::malloc_trim(0);
  // Writing "5" to clear_refs resets VmHWM to the current RSS (Linux >= 4.0).
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  if (!clear_refs) {
    std::fprintf(stderr, "perfbench: cannot reset the peak-RSS mark; "
                         "peak_rss_mb includes set-up\n");
  }
}

void Report::record_peak_rss() {
  std::ifstream status("/proc/self/status");
  std::string line;
  double self_kb = -1.0;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      self_kb = std::stod(line.substr(6));
      break;
    }
  }
  if (self_kb < 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  struct rusage children {};
  ::getrusage(RUSAGE_CHILDREN, &children);  // ru_maxrss in kB on Linux
  peak_rss_mb_ =
      std::max(self_kb, static_cast<double>(children.ru_maxrss)) / 1024.0;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) == rank && index > 0) --index;  // nearest rank
  return values[std::min(index, values.size() - 1)];
}

unsigned host_cpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

std::uint64_t study_seed(std::uint64_t workload_seed) {
  return omptune::util::SplitMix64(workload_seed ^ 0x0417D5EEDull).next();
}

void collect_by_setting(
    const omptune::sweep::StudyPlan& plan, std::uint64_t seed,
    const std::function<void(const omptune::sweep::Dataset&)>& visit) {
  using namespace omptune;
  sim::ModelRunner model;
  sweep::SweepHarness harness(model, 4, seed);
  for (const sweep::ArchPlan& arch_plan : plan.arch_plans) {
    const arch::CpuArch& cpu = arch::architecture(arch_plan.arch);
    for (std::size_t i = 0; i < arch_plan.settings.size(); ++i) {
      visit(harness.run_setting(cpu, arch_plan.settings[i],
                                arch_plan.configs_per_setting[i]));
    }
  }
}

std::size_t settings_with_quarantine(const omptune::sweep::Dataset& dataset) {
  std::set<std::string> settings;
  for (const omptune::sweep::Sample& s : dataset.samples()) {
    if (s.is_quarantined()) {
      settings.insert(s.arch + '/' + s.app + '/' + s.input + '/' +
                      std::to_string(s.threads));
    }
  }
  return settings.size();
}

}  // namespace perfbench

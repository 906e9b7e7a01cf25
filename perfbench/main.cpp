// omptune end-to-end benchmark binary: runs one workload in this process
// and prints its metrics. See perfbench/README.md for the workloads, the
// metrics and the layer -> end-to-end map; perfbench/run.py builds and
// invokes this binary.
//
//   omptune_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --workdir DIR [--trace-dir DIR]
//
// Every metric is printed as "name = value unit"; the last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics the workload
// measured (--trace 1; run.py adds the layers it bypasses as 0).

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench.hpp"
#include "trace.hpp"


namespace {

using namespace perfbench;

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: omptune_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --workdir DIR "
               "[--trace-dir DIR]\n",
               message);
  return 2;
}

void print_json(const Report& report, bool trace) {
  const auto& metrics = trace ? report.layer_metrics() : report.e2e_metrics();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  const char* separator = "";
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", separator,
                name.c_str(), metric.value, metric.unit.c_str());
    separator = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string trace_dir;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--workdir") {
        options.workdir = value;
      } else if (flag == "--trace-dir") {
        trace_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || !have_seed ||
      options.workdir.empty() || !(options.seconds > 0.0)) {
    return usage("missing or malformed arguments");
  }

  using Workload = void (*)(const Options&, Tracer&, Report&);
  const std::vector<std::pair<std::string, Workload>> workloads = {
      {"paper_pipeline", run_paper_pipeline},
      {"durable_collection", run_durable_collection},
      {"serve_swap", run_serve_swap},
  };
  const auto found = std::find_if(
      workloads.begin(), workloads.end(),
      [&](const auto& w) { return w.first == options.workload; });
  if (found == workloads.end()) return usage("unknown workload");

  const std::string run_id = options.workload + "-seed" +
                             std::to_string(options.seed) + "-pid" +
                             std::to_string(::getpid());
  options.workdir = (std::filesystem::path(options.workdir) / run_id).string();
  if (options.trace && !trace_dir.empty()) {
    options.trace_path = (std::filesystem::path(trace_dir) /
                          (options.workload + "-seed" +
                           std::to_string(options.seed) + ".json"))
                             .string();
  }

  Report report;
  Tracer tracer(run_id);
  int status = 0;
  try {
    std::filesystem::remove_all(options.workdir);
    std::filesystem::create_directories(options.workdir);
    found->second(options, tracer, report);
    if (options.trace) {
      report.layer("trace.spans", static_cast<double>(tracer.span_count()),
                   "count");
      if (!options.trace_path.empty()) {
        std::filesystem::create_directories(trace_dir);
        tracer.write_chrome_json(options.trace_path);
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", run_id.c_str(),
                 error.what());
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(options.workdir, ignored);
  if (status != 0) return status;

  // Metrics every workload reports, derived from its accounting.
  report.e2e("setup_s", median(report.setup_samples()), "s");
  report.e2e("peak_rss_mb", report.peak_rss_mb(), "MiB");
  const double attempted = static_cast<double>(report.attempted());
  const double failed = static_cast<double>(report.failed());
  report.e2e("success_ratio",
             attempted > 0 ? (attempted - failed) / attempted : 0.0, "ratio");

  for (const auto& [name, metric] : report.e2e_metrics()) {
    std::printf("%-32s = %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  if (options.trace) {
    for (const auto& [name, metric] : report.layer_metrics()) {
      std::printf("%-32s = %.6g %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  std::printf("%-32s = %llu of %llu attempted\n", "failed_ratio",
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));
  for (const std::string& failure : report.check_failures()) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  print_json(report, options.trace);
  return 0;
}

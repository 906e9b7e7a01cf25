#include "sweep/config_space.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace omptune::sweep {

ConfigSpace ConfigSpace::paper_space(const arch::CpuArch& cpu) {
  ConfigSpace space;
  space.places = {arch::PlacesKind::Unset, arch::PlacesKind::Cores,
                  arch::PlacesKind::LLCaches, arch::PlacesKind::Sockets};
  space.binds = {arch::BindKind::Unset,  arch::BindKind::False_,
                 arch::BindKind::True_,  arch::BindKind::Master,
                 arch::BindKind::Close,  arch::BindKind::Spread};
  space.schedules = {rt::ScheduleKind::Static, rt::ScheduleKind::Dynamic,
                     rt::ScheduleKind::Guided, rt::ScheduleKind::Auto};
  space.libraries = {rt::LibraryMode::Throughput, rt::LibraryMode::Turnaround};
  space.blocktimes_ms = {0, 200, rt::kBlocktimeInfinite};
  space.reductions = {rt::ReductionMethod::Default, rt::ReductionMethod::Tree,
                      rt::ReductionMethod::Critical, rt::ReductionMethod::Atomic};
  if (cpu.cacheline_bytes >= 256) {
    space.aligns = {256, 512};
  } else {
    space.aligns = {64, 128, 256, 512};
  }
  return space;
}

std::size_t ConfigSpace::size() const {
  return places.size() * binds.size() * schedules.size() * libraries.size() *
         blocktimes_ms.size() * reductions.size() * aligns.size();
}

std::size_t ConfigSpace::sample_size(std::size_t count) const {
  return std::max<std::size_t>(1, std::min(count, size()));
}

std::vector<rt::RtConfig> ConfigSpace::enumerate(int num_threads) const {
  std::vector<rt::RtConfig> configs;
  configs.reserve(size());
  for (const auto p : places) {
    for (const auto b : binds) {
      for (const auto s : schedules) {
        for (const auto l : libraries) {
          for (const auto bt : blocktimes_ms) {
            for (const auto r : reductions) {
              for (const auto a : aligns) {
                rt::RtConfig config;
                config.num_threads = num_threads;
                config.places = p;
                config.bind = b;
                config.schedule = s;
                config.library = l;
                config.blocktime_ms = bt;
                config.reduction = r;
                config.align_alloc = a;
                configs.push_back(config);
              }
            }
          }
        }
      }
    }
  }
  return configs;
}

std::vector<rt::RtConfig> ConfigSpace::sample(int num_threads, std::size_t count,
                                              std::uint64_t seed) const {
  std::vector<rt::RtConfig> all = enumerate(num_threads);
  count = std::min(count, all.size());

  // Fisher-Yates with a seeded generator: deterministic subsample.
  util::Xoshiro256 rng(seed);
  for (std::size_t i = all.size() - 1; i > 0; --i) {
    std::swap(all[i], all[rng.uniform_index(i + 1)]);
  }
  all.resize(count);

  // The default configuration anchors the speedup computation; pin it to
  // the front (replacing the first sampled config if it was absent). The
  // sweep enumerates explicit alignments, so the derived cache-line default
  // appears as the smallest value of the align set.
  rt::RtConfig anchor;
  anchor.num_threads = num_threads;
  anchor.align_alloc = aligns.front();
  const auto found = std::find(all.begin(), all.end(), anchor);
  if (found != all.end()) {
    std::iter_swap(all.begin(), found);
  } else if (!all.empty()) {
    all.front() = anchor;
  } else {
    all.push_back(anchor);
  }
  return all;
}

std::vector<int> thread_sweep(const arch::CpuArch& cpu) {
  // Quarter steps up to the full machine, matching the paper's reduced
  // thread-count exploration.
  return {cpu.cores / 4, cpu.cores / 2, (3 * cpu.cores) / 4, cpu.cores};
}

}  // namespace omptune::sweep

#pragma once

// The swept configuration space — exactly the per-variable value sets of the
// paper's Section III:
//
//   OMP_PLACES          unset, cores, ll_caches, sockets
//                       (threads skipped: no SMT; numa_domains skipped:
//                        needs hwloc — both per the paper)
//   OMP_PROC_BIND       unset, false, true, master, close, spread
//   OMP_SCHEDULE        static, dynamic, guided, auto (no chunk sizes)
//   KMP_LIBRARY         throughput, turnaround (serial excluded)
//   KMP_BLOCKTIME       0, 200, infinite
//   KMP_FORCE_REDUCTION unset, tree, critical, atomic
//   KMP_ALIGN_ALLOC     A64FX: 256, 512; X86: 64, 128, 256, 512
//
// Full cross product: 9216 configurations on X86, 4608 on A64FX, per
// (application, setting).

#include <cstdint>
#include <vector>

#include "arch/cpu_arch.hpp"
#include "rt/config.hpp"

namespace omptune::sweep {

struct ConfigSpace {
  std::vector<arch::PlacesKind> places;
  std::vector<arch::BindKind> binds;
  std::vector<rt::ScheduleKind> schedules;
  std::vector<rt::LibraryMode> libraries;
  std::vector<std::int64_t> blocktimes_ms;  ///< rt::kBlocktimeInfinite allowed
  std::vector<rt::ReductionMethod> reductions;
  std::vector<int> aligns;

  /// The paper's value sets for one architecture (align set depends on the
  /// cache-line size).
  static ConfigSpace paper_space(const arch::CpuArch& cpu);

  /// Number of configurations in the cross product.
  std::size_t size() const;

  /// Enumerate the full cross product. Every config carries `num_threads`
  /// (0 = architecture default). Deterministic order.
  std::vector<rt::RtConfig> enumerate(int num_threads) const;

  /// Deterministically subsample `count` configurations (seeded shuffle of
  /// the full enumeration). The architecture-default configuration is always
  /// included as the first element — the sweep needs it as the speedup
  /// baseline. `count` is clamped to size().
  std::vector<rt::RtConfig> sample(int num_threads, std::size_t count,
                                   std::uint64_t seed) const;

  /// Length of sample(..., count, ...): `count` clamped to size(), and at
  /// least 1 (the pinned default). Lets a caller size its rows before it
  /// samples.
  std::size_t sample_size(std::size_t count) const;
};

/// Thread counts swept for VaryThreads applications on one architecture
/// (paper IV-B; the reduced thread exploration it acknowledges).
std::vector<int> thread_sweep(const arch::CpuArch& cpu);

}  // namespace omptune::sweep

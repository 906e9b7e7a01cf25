#pragma once

// One immutable generation of serving state: the mmap'd store shards plus
// every table a query needs, precomputed at load time.
//
// The recommendation server must answer in microseconds, but the analysis
// stack answers in milliseconds-to-seconds (influence-model fits, slice
// scans). The snapshot moves all of that to swap time: loading a snapshot
// scans the shards once — best config per setting, best config per
// (app, arch) pair, per-(arch, variable, value) marginal stats, and the
// influence-ordered variable priority per pair — and a live query is then
// a hash lookup into the frozen tables. A snapshot is never mutated after
// load; the server publishes it behind a shared_ptr, so in-flight batches
// keep the previous generation (and its mmap) alive across a hot-swap
// until their last reply is encoded.
//
// Generations are assigned by the server: 1 for the snapshot it boots
// with, +1 per successful swap. The generation is threaded into the
// StoreReader so an open/validation failure during a swap is attributable
// ("generation 7, shard b.omps"), and into every reply so clients can
// observe swaps happening under them.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/marginals.hpp"

namespace omptune::store {
class StoreReader;
}
namespace omptune::util {
class ThreadPool;
}

namespace omptune::serve {

/// Best known configuration of some scope (a setting or an (app, arch)
/// pair): the answer payload of the recommendation queries.
struct BestConfig {
  double speedup = 0.0;
  std::string config_key;  ///< rt::RtConfig::key()
};

class Snapshot {
 public:
  /// Open and aggregate `store_paths` (each a .omps store shard) as
  /// generation `generation`. Open/validation failures throw
  /// util::StoreOpenError / util::DataCorruptionError naming the path and
  /// generation. With a pool, the load-time scans run on it.
  static std::shared_ptr<const Snapshot> load(
      const std::vector<std::string>& store_paths, std::uint64_t generation,
      const util::ThreadPool* pool = nullptr);

  std::uint64_t generation() const { return generation_; }
  std::size_t shard_count() const { return shard_paths_.size(); }
  const std::vector<std::string>& shard_paths() const { return shard_paths_; }
  std::uint64_t rows() const { return rows_; }

  /// Best known config for an (app, arch) pair across every setting;
  /// nullptr when the pair has no non-quarantined samples.
  const BestConfig* best_for_pair(const std::string& app,
                                  const std::string& arch) const;

  /// Best known config for one exact (arch, app, input, threads) setting.
  const BestConfig* best_for_setting(const std::string& arch,
                                     const std::string& app,
                                     const std::string& input,
                                     std::int32_t threads) const;

  /// Marginal speedup stats of (arch, variable, value); arch "all" selects
  /// the pooled row.
  const analysis::MarginalRow* marginal(const std::string& arch,
                                        const std::string& variable,
                                        const std::string& value) const;

  /// Influence-ordered variable priority for (app, arch), falling back to
  /// the arch-level, then the global ordering — core::priority_ladder,
  /// which core::KnowledgeBase::variable_priority walks too, filled in at
  /// load time. Never nullptr on a snapshot with any samples; nullptr on
  /// an empty one.
  const std::vector<std::string>* priority(const std::string& app,
                                           const std::string& arch) const;

  ~Snapshot();

 private:
  Snapshot() = default;

  std::uint64_t generation_ = 0;
  std::uint64_t rows_ = 0;
  std::vector<std::string> shard_paths_;
  /// Keep the mmaps alive for exactly the snapshot's lifetime. (The answer
  /// tables own copies of everything they serve; the readers are retained
  /// so a future query type can drop to the raw slices of this generation.)
  std::vector<std::unique_ptr<store::StoreReader>> readers_;

  std::unordered_map<std::string, BestConfig> best_pair_;
  std::unordered_map<std::string, BestConfig> best_setting_;
  std::unordered_map<std::string, analysis::MarginalRow> marginals_;
  std::unordered_map<std::string, std::vector<std::string>> priority_;
};

}  // namespace omptune::serve

#pragma once

// The study dataset: one Sample per unique (architecture, application,
// input/threads setting, configuration), carrying all repetition runtimes
// and the derived speedup over the setting's default configuration — the
// tabular files the paper open-sources.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "rt/config.hpp"
#include "util/csv.hpp"

namespace omptune::sweep {

/// Collection status of one sample. Anything other than Ok means the
/// measurement pipeline intervened; Quarantined samples carry no valid
/// runtime and MUST be excluded from speedup enrichment and downstream
/// statistics/ML (see analysis::best_per_setting, core::Study::analyze).
enum class SampleStatus {
  Ok,          ///< measured first try
  Retried,     ///< measured after >= 1 transient failure
  Quarantined  ///< all attempts failed; runtimes are placeholders (0)
};

std::string to_string(SampleStatus status);
SampleStatus sample_status_from_string(const std::string& text);

/// Duplicate-resolution rank: lower is better. When the same measurement
/// key appears in multiple shards or journal entries, the sample with the
/// lowest rank wins (Ok over Retried over Quarantined) — a re-collected
/// clean measurement must beat a quarantined placeholder, never lose to it
/// by arrival order.
int status_preference(SampleStatus status);

struct Sample {
  std::string arch;
  std::string app;
  std::string suite;
  std::string kind;        ///< "loop" or "task"
  std::string input;       ///< input-size name
  int threads = 0;         ///< resolved team size
  rt::RtConfig config;
  std::vector<double> runtimes;  ///< R0..Rk
  double mean_runtime = 0.0;
  double default_runtime = 0.0;  ///< mean runtime of the setting's default
  double speedup = 0.0;          ///< default_runtime / mean_runtime
  bool is_default = false;
  SampleStatus status = SampleStatus::Ok;
  int attempts = 1;        ///< measurement attempts consumed (max over reps)
  std::string error;       ///< last failure message when status != Ok

  bool is_quarantined() const { return status == SampleStatus::Quarantined; }
};

/// Measurement identity of a sample: "arch/app/input/threads/<config key>".
/// Two samples with equal identity are the same measurement collected twice
/// (overlapping shards, re-recorded journal entries) and must be deduplicated
/// by status_preference, not by arrival order.
std::string sample_identity(const Sample& sample);

/// Column-stable dataset container.
class Dataset {
 public:
  Dataset() = default;

  /// Adopt an already-built sample vector (parallel materialization paths
  /// fill a pre-sized vector by index, then wrap it).
  explicit Dataset(std::vector<Sample> samples)
      : samples_(std::move(samples)) {}

  void add(Sample sample) { samples_.push_back(std::move(sample)); }
  void append(Dataset other);

  const std::vector<Sample>& samples() const { return samples_; }
  std::size_t size() const { return samples_.size(); }

  /// Samples matching a predicate, by value (grouping helper).
  template <typename Pred>
  Dataset filter(Pred&& pred) const {
    Dataset out;
    for (const Sample& s : samples_) {
      if (pred(s)) out.add(s);
    }
    return out;
  }

  /// Distinct values of a string field selector across the dataset,
  /// in first-appearance order.
  template <typename Selector>
  std::vector<std::string> distinct(Selector&& sel) const {
    std::vector<std::string> out;
    for (const Sample& s : samples_) {
      const std::string value = sel(s);
      if (std::find(out.begin(), out.end(), value) == out.end()) {
        out.push_back(value);
      }
    }
    return out;
  }

  /// Samples whose status is not Quarantined — the only rows statistics and
  /// ML paths may consume.
  Dataset ok_samples() const {
    return filter([](const Sample& s) { return !s.is_quarantined(); });
  }

  /// Number of quarantined samples.
  std::size_t quarantined_count() const;

  /// Outcome tally of a dedupe pass (see deduped()).
  struct DedupeReport {
    std::size_t duplicates = 0;  ///< samples dropped as duplicate identities
    std::size_t replaced = 0;    ///< kept samples upgraded by a better status
  };

  /// Collapse samples sharing a sample_identity into one, keeping the
  /// best-status occurrence (Ok over Retried over Quarantined; first wins on
  /// ties) at the position of the identity's first appearance. Used by the
  /// shard merger and the journal compactor, where overlapping collection
  /// legitimately produces the same measurement more than once. It
  /// collapses in place, so a caller done with its input (compaction of a
  /// whole study) never holds two copies of the rows.
  Dataset deduped(DedupeReport* report = nullptr) &&;

  /// Serialize to the open-data CSV schema (one row per sample, one column
  /// per variable plus all repetition runtimes).
  util::CsvTable to_csv() const;

  /// Parse a dataset back from its CSV form. `source` names the origin
  /// (file name) for error messages. Malformed rows raise
  /// util::DataCorruptionError carrying `source` and the 1-based data row
  /// number; non-finite runtime/speedup fields are rejected the same way.
  static Dataset from_csv(const util::CsvTable& table,
                          const std::string& source = "");

  /// Load a dataset CSV file. Every failure mode — unreadable file, broken
  /// quoting, short rows, non-numeric or non-finite fields, a garbled
  /// runtime_N column block — surfaces as util::DataCorruptionError; this
  /// never returns a silently truncated dataset.
  static Dataset load_csv_file(const std::string& path);

  /// Serialize to the binary columnar store format (.omps): dictionary-coded
  /// string columns, packed config fields, contiguous runtime blocks and an
  /// embedded (arch, app, input, threads) index (store::write_store). Atomic
  /// replace, like the journal's segment writes.
  void save_store(const std::string& path) const;

  /// Load a .omps store file (full materialization, every section checksum
  /// verified). Throws util::DataCorruptionError naming file and offset on
  /// any corruption. For indexed partial reads, use store::StoreReader
  /// directly.
  static Dataset load_store(const std::string& path);

 private:
  std::vector<Sample> samples_;
};

}  // namespace omptune::sweep

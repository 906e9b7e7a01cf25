#pragma once

// Write-ahead journal for resumable studies.
//
// A study is a sequence of settings; the journal persists each setting's
// samples as its own single-setting .omps segment (the store format of
// store/format.hpp, every section checksummed) the moment the setting
// completes, via an atomic temp-file + fsync + rename write
// (util::atomic_write_file). A crash therefore loses at most the in-flight
// setting; on resume the harness replays completed settings from disk and
// recollects only the rest. Because per-setting RNG seeds derive from the
// setting key (not the global sequence position), and a segment keeps every
// double exactly, a resumed study is bit-identical to an uninterrupted one.
//
// Layout: <dir>/<sanitized-key>-<hash16>.omps — human-greppable prefix plus
// a stable 64-bit hash so distinct keys can never collide after
// sanitization. Loading reads the segment through util::read_file (where
// the I/O hooks see it), verifies every checksum and, when the caller knows
// it, the sample count; every validation failure surfaces as
// util::DataCorruptionError, never as a silently short dataset. A
// directory still holding a per-setting CSV entry of an older build
// (<sanitized-key>-<hash16>.csv) is refused the same way when it is opened,
// so no run, resume or compaction can silently drop that entry's setting;
// other files in the directory are left alone.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "sweep/dataset.hpp"

namespace omptune::store {
struct CompactReport;
}

namespace omptune::sweep {

class StudyJournal {
 public:
  /// Opens (and creates, if needed) the journal directory. Throws
  /// util::DataCorruptionError naming the first CSV entry an older build
  /// left there: this build does not read them, so journaling over one would
  /// silently drop its setting from a resume or compaction.
  explicit StudyJournal(std::string directory);

  const std::string& directory() const { return directory_; }

  /// Whether a completed entry for `key` exists.
  bool contains(const std::string& key) const;

  /// Persist a setting's samples under `key` as one .omps segment (atomic
  /// replace). The span form encodes a run of rows in place.
  void record(const std::string& key, std::span<const Sample> samples) const;
  void record(const std::string& key, const Dataset& dataset) const {
    record(key, dataset.samples());
  }

  /// Load the entry for `key`. `expected_samples` > 0 additionally asserts
  /// the stored sample count (a clean-boundary truncation is otherwise
  /// undetectable). Throws util::DataCorruptionError on a missing,
  /// malformed, or short entry.
  Dataset load(const std::string& key, std::size_t expected_samples = 0) const;

  /// Remove the entry for `key` if present (durable: the parent directory
  /// is fsynced, so a discarded entry cannot resurrect after power loss).
  void discard(const std::string& key) const;

  /// Move `key`'s entry from `other` into this journal. On the common path
  /// (no local entry yet) this is a metadata-only rename(2) plus directory
  /// fsyncs — no decode, no rewrite — which is what keeps the process
  /// supervisor's per-worker-journal promotion cheap. If BOTH journals hold
  /// the key (a reassigned shard whose original worker did finish), the two
  /// entries are merged by the Ok > Retried > Quarantined dedupe instead,
  /// so a clean recollection never loses to a quarantined placeholder.
  /// No-op when `other` has no entry for `key`.
  void adopt(const StudyJournal& other, const std::string& key) const;

  /// File names of the completed entries, sorted.
  std::vector<std::string> entry_files() const;

  /// File path backing `key` (exposed for tests that corrupt entries).
  std::string entry_path(const std::string& key) const;

  /// Compact every completed entry (many per-setting segments) into one
  /// .omps store file at `out_path` (atomic replace). Entries are
  /// concatenated in file-name order and deduplicated by measurement
  /// identity — the best-status occurrence wins (Ok over Retried over
  /// Quarantined), so a re-recorded setting never resurrects a quarantined
  /// placeholder. Throws util::DataCorruptionError if any entry fails
  /// validation.
  store::CompactReport compact(const std::string& out_path) const;

 private:
  /// Load the segment at `path`, every checksum verified.
  static Dataset load_file(const std::string& path);

  std::string directory_;
};

}  // namespace omptune::sweep

#include "sweep/journal.hpp"

#include <cctype>
#include <cstdio>
#include <string_view>

#include "store/compact.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/mmap_file.hpp"
#include "util/rng.hpp"

namespace omptune::sweep {

namespace {

/// Filesystem-safe rendering of a setting key; uniqueness comes from the
/// appended hash, the prefix only keeps the files greppable.
std::string sanitize(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (const char c : key) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  if (out.size() > 80) out.resize(80);
  return out;
}

std::string hash16(const std::string& key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(util::stable_hash(key)));
  return buf;
}

/// Whether `name` is an entry an older build wrote: the CSV form of the
/// entry name, <sanitized-key>-<hash16>.csv. Any other file (an exported
/// dataset, notes) is not the journal's and is never refused.
bool is_legacy_entry(const std::string& name) {
  constexpr std::string_view kSuffix = ".csv";
  if (!name.ends_with(kSuffix)) return false;
  const std::string_view stem =
      std::string_view(name).substr(0, name.size() - kSuffix.size());
  if (stem.size() < 18 || stem[stem.size() - 17] != '-') return false;
  for (const char c : stem.substr(stem.size() - 16)) {
    if (!std::isdigit(static_cast<unsigned char>(c)) && (c < 'a' || c > 'f')) {
      return false;
    }
  }
  for (const char c : stem.substr(0, stem.size() - 17)) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

}  // namespace

StudyJournal::StudyJournal(std::string directory)
    : directory_(std::move(directory)) {
  util::create_directories(directory_);
  // Writers SIGKILLed between temp-file open and rename leave droppings
  // behind; the journal owns its directory exclusively, so they are always
  // stale here and must not accumulate across crash/resume cycles.
  util::remove_stale_temp_files(directory_);
  for (const std::string& name : util::list_files(directory_)) {
    if (is_legacy_entry(name)) {
      throw util::DataCorruptionError(
          util::path_join(directory_, name), 0,
          "CSV journal entry from an older build; this build journals .omps "
          "segments and does not read it (remove the old entries or journal "
          "into another directory)");
    }
  }
}

std::string StudyJournal::entry_path(const std::string& key) const {
  return util::path_join(directory_, sanitize(key) + "-" + hash16(key) + ".omps");
}

bool StudyJournal::contains(const std::string& key) const {
  return util::file_exists(entry_path(key));
}

void StudyJournal::record(const std::string& key,
                          std::span<const Sample> samples) const {
  util::atomic_write_file(entry_path(key), store::serialize_store(samples));
}

Dataset StudyJournal::load_file(const std::string& path) {
  std::optional<std::string> bytes = util::read_file(path);
  if (!bytes) {
    throw util::DataCorruptionError(path + ": journal entry missing");
  }
  return store::StoreReader(util::MappedFile::from_bytes(path, std::move(*bytes)))
      .load();
}

Dataset StudyJournal::load(const std::string& key,
                           std::size_t expected_samples) const {
  const std::string path = entry_path(key);
  if (!util::file_exists(path)) {
    throw util::DataCorruptionError("journal entry '" + key +
                                    "' missing from " + directory_);
  }
  Dataset dataset = load_file(path);
  if (expected_samples > 0 && dataset.size() != expected_samples) {
    throw util::DataCorruptionError(
        path + ": journal entry for '" + key + "' holds " +
        std::to_string(dataset.size()) + " samples, expected " +
        std::to_string(expected_samples));
  }
  return dataset;
}

void StudyJournal::discard(const std::string& key) const {
  util::remove_file_durable(entry_path(key));
}

void StudyJournal::adopt(const StudyJournal& other, const std::string& key) const {
  if (!other.contains(key)) return;
  if (!contains(key)) {
    util::rename_file(other.entry_path(key), entry_path(key));
    return;
  }
  // Both sides hold the key: merge by measurement identity, best status
  // wins. Deterministic collection makes the common duplicate identical,
  // but a quarantined placeholder must never shadow a clean recollection.
  Dataset combined = load(key);
  combined.append(other.load(key));
  record(key, std::move(combined).deduped());
  other.discard(key);
}

std::vector<std::string> StudyJournal::entry_files() const {
  std::vector<std::string> out;
  for (const std::string& name : util::list_files(directory_)) {
    if (name.ends_with(".omps")) out.push_back(name);
  }
  return out;
}

store::CompactReport StudyJournal::compact(const std::string& out_path) const {
  store::CompactReport report;
  Dataset combined;
  for (const std::string& name : entry_files()) {
    Dataset entry = load_file(util::path_join(directory_, name));
    report.samples_in += entry.size();
    combined.append(std::move(entry));
    ++report.entries;
  }

  Dataset::DedupeReport dedupe;
  const Dataset deduped = std::move(combined).deduped(&dedupe);
  report.duplicates_dropped = dedupe.duplicates;
  report.replaced = dedupe.replaced;
  report.samples_out = deduped.size();
  report.quarantined = deduped.quarantined_count();

  store::write_store(out_path, deduped);
  return report;
}

}  // namespace omptune::sweep

#include "store/writer.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <vector>

#include "store/format.hpp"
#include "util/fs.hpp"

namespace omptune::store {

namespace {

using sweep::Dataset;
using sweep::Sample;

/// First-appearance-ordered string dictionary.
struct Dict {
  std::vector<std::string> values;
  std::map<std::string, std::uint32_t> codes;

  std::uint32_t code(const std::string& value) {
    const auto [it, inserted] =
        codes.emplace(value, static_cast<std::uint32_t>(values.size()));
    if (inserted) values.push_back(value);
    return it->second;
  }
};

void append_dict(std::string& out, const Dict& dict) {
  append_scalar<std::uint32_t>(out, static_cast<std::uint32_t>(dict.values.size()));
  for (const std::string& value : dict.values) {
    append_scalar<std::uint32_t>(out, static_cast<std::uint32_t>(value.size()));
    out.append(value);
  }
}

std::uint16_t narrow16(std::uint32_t code, const char* what) {
  if (code > 0xFFFFu) {
    throw std::invalid_argument(std::string("write_store: more than 65535 distinct ") +
                                what + " values");
  }
  return static_cast<std::uint16_t>(code);
}

double finite_or_throw(double value, const char* what, std::size_t row) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("write_store: non-finite " + std::string(what) +
                                " in sample " + std::to_string(row));
  }
  return value;
}

void pad_to_8(std::string& out) { out.resize(pad8(out.size()), '\0'); }

/// One fixed-layout section, placed in the file buffer and filled column
/// by column. Columns must be declared in layout order; each must start at
/// or after the previous one's end and fit the section, so a writer/layout
/// drift (a width or order changed on one side only) throws instead of
/// writing a file the reader would misparse.
class SectionWriter {
 public:
  SectionWriter(std::string& file, std::size_t offset, std::size_t bytes)
      : base_(file.data() + offset), bytes_(bytes) {}

  /// One typed array: row i's value lands at `offset + i * sizeof(T)`.
  template <typename T>
  class Column {
   public:
    void put(std::size_t row, T value) const {
      std::memcpy(at_ + row * sizeof(T), &value, sizeof(T));
    }

   private:
    friend class SectionWriter;
    explicit Column(char* at) : at_(at) {}
    char* at_;
  };

  template <typename T>
  Column<T> column(std::size_t offset, std::size_t rows) {
    if (offset < end_ || offset % sizeof(T) != 0 ||
        offset + sizeof(T) * rows > bytes_) {
      throw std::logic_error("write_store: section layout drifted from format.hpp");
    }
    end_ = offset + sizeof(T) * rows;
    return Column<T>(base_ + offset);
  }

 private:
  char* base_;
  std::size_t bytes_;
  std::size_t end_ = 0;
};

}  // namespace

std::string serialize_store(const Dataset& dataset) {
  const std::vector<Sample>& samples = dataset.samples();
  const std::size_t n = samples.size();

  // ---- pass 1: dictionary codes, index runs and the runtime stride ----
  // These size the two variable-length sections; every other section's
  // size follows from n and reps alone.
  struct Run {
    std::uint16_t arch, app, input;
    std::int32_t threads;
    std::uint64_t first_row, row_count;
  };
  std::vector<Run> runs;
  Dict arch_dict, app_dict, input_dict, suite_dict, kind_dict, error_dict;
  std::vector<std::uint16_t> suite_code(n), kind_code(n);
  std::vector<std::uint32_t> error_code(n);
  std::size_t reps = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = samples[i];
    const std::uint16_t arch = narrow16(arch_dict.code(s.arch), "arch");
    const std::uint16_t app = narrow16(app_dict.code(s.app), "app");
    const std::uint16_t input = narrow16(input_dict.code(s.input), "input");
    suite_code[i] = narrow16(suite_dict.code(s.suite), "suite");
    kind_code[i] = narrow16(kind_dict.code(s.kind), "kind");
    error_code[i] = error_dict.code(s.error);
    reps = std::max(reps, s.runtimes.size());
    const bool extends = !runs.empty() && runs.back().arch == arch &&
                         runs.back().app == app && runs.back().input == input &&
                         runs.back().threads == s.threads;
    if (extends) {
      ++runs.back().row_count;
    } else {
      runs.push_back(Run{arch, app, input, s.threads, i, 1});
    }
  }

  std::string dictionaries;
  append_dict(dictionaries, arch_dict);
  append_dict(dictionaries, app_dict);
  append_dict(dictionaries, input_dict);
  append_dict(dictionaries, suite_dict);
  append_dict(dictionaries, kind_dict);
  append_dict(dictionaries, error_dict);
  pad_to_8(dictionaries);

  std::string index;
  append_scalar<std::uint64_t>(index, runs.size());
  for (const Run& run : runs) {
    append_scalar(index, run.arch);
    append_scalar(index, run.app);
    append_scalar(index, run.input);
    append_scalar<std::uint16_t>(index, 0);
    append_scalar(index, run.threads);
    append_scalar<std::uint32_t>(index, 0);
    append_scalar(index, run.first_row);
    append_scalar(index, run.row_count);
  }

  // ---- the file: one buffer, every section at its final offset ----
  const KeyColumnsLayout key = key_columns_layout(n);
  const ConfigColumnsLayout cfg = config_columns_layout(n);
  const StatColumnsLayout stat = stat_columns_layout(n);
  const SectionKind kinds[kSectionCount] = {
      SectionKind::Dictionaries, SectionKind::KeyColumns,
      SectionKind::ConfigColumns, SectionKind::StatColumns,
      SectionKind::Runtimes,      SectionKind::Errors,
      SectionKind::Index};
  const std::size_t sizes[kSectionCount] = {
      dictionaries.size(), key.bytes, cfg.bytes, stat.bytes,
      runtimes_bytes(n, reps), errors_bytes(n), index.size()};
  const std::size_t header_bytes =
      kHeaderBytes + kSectionCount * kSectionEntryBytes;
  std::size_t offsets[kSectionCount];
  std::size_t file_bytes = header_bytes;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    offsets[i] = file_bytes;
    file_bytes += sizes[i];
  }
  std::string out(file_bytes, '\0');
  std::memcpy(out.data() + offsets[0], dictionaries.data(), sizes[0]);
  std::memcpy(out.data() + offsets[6], index.data(), sizes[6]);

  // ---- pass 2: every fixed-layout column, straight into the file ----
  SectionWriter key_cols(out, offsets[1], sizes[1]);
  SectionWriter config_cols(out, offsets[2], sizes[2]);
  SectionWriter stat_cols(out, offsets[3], sizes[3]);
  SectionWriter runtime_block(out, offsets[4], sizes[4]);
  SectionWriter errors(out, offsets[5], sizes[5]);

  const auto arch_col = key_cols.column<std::uint16_t>(key.arch, n);
  const auto app_col = key_cols.column<std::uint16_t>(key.app, n);
  const auto input_col = key_cols.column<std::uint16_t>(key.input, n);
  const auto threads_col = key_cols.column<std::int32_t>(key.threads, n);

  // Config columns, widest first so every array stays aligned.
  const auto blocktime_col = config_cols.column<std::int64_t>(cfg.blocktime, n);
  const auto num_threads_col = config_cols.column<std::int32_t>(cfg.num_threads, n);
  const auto chunk_col = config_cols.column<std::int32_t>(cfg.chunk, n);
  const auto align_col = config_cols.column<std::int32_t>(cfg.align, n);
  const auto attempts_col = config_cols.column<std::int32_t>(cfg.attempts, n);
  const auto runtime_count_col =
      config_cols.column<std::uint16_t>(cfg.runtime_count, n);
  const auto suite_col = config_cols.column<std::uint16_t>(cfg.suite, n);
  const auto kind_col = config_cols.column<std::uint16_t>(cfg.kind, n);
  const auto places_col = config_cols.column<std::uint8_t>(cfg.places, n);
  const auto bind_col = config_cols.column<std::uint8_t>(cfg.bind, n);
  const auto schedule_col = config_cols.column<std::uint8_t>(cfg.schedule, n);
  const auto library_col = config_cols.column<std::uint8_t>(cfg.library, n);
  const auto reduction_col = config_cols.column<std::uint8_t>(cfg.reduction, n);
  const auto status_col = config_cols.column<std::uint8_t>(cfg.status, n);
  const auto is_default_col = config_cols.column<std::uint8_t>(cfg.is_default, n);

  const auto mean_col = stat_cols.column<double>(stat.mean, n);
  const auto default_col = stat_cols.column<double>(stat.deflt, n);
  const auto speedup_col = stat_cols.column<double>(stat.speedup, n);

  // Fixed stride, zero-padded like the CSV schema.
  const auto runtime_col = runtime_block.column<double>(0, n * reps);
  const auto error_col = errors.column<std::uint32_t>(0, n);

  // Index runs hold the key codes in row order; unrolling them is cheaper
  // than a second round of dictionary lookups.
  for (const Run& run : runs) {
    const std::size_t end = run.first_row + run.row_count;
    for (std::size_t i = run.first_row; i < end; ++i) {
      const Sample& s = samples[i];
      arch_col.put(i, run.arch);
      app_col.put(i, run.app);
      input_col.put(i, run.input);
      threads_col.put(i, s.threads);

      blocktime_col.put(i, s.config.blocktime_ms);
      num_threads_col.put(i, s.config.num_threads);
      chunk_col.put(i, s.config.chunk);
      align_col.put(i, s.config.align_alloc);
      attempts_col.put(i, s.attempts);
      runtime_count_col.put(i, static_cast<std::uint16_t>(s.runtimes.size()));
      suite_col.put(i, suite_code[i]);
      kind_col.put(i, kind_code[i]);
      places_col.put(i, static_cast<std::uint8_t>(s.config.places));
      bind_col.put(i, static_cast<std::uint8_t>(s.config.bind));
      schedule_col.put(i, static_cast<std::uint8_t>(s.config.schedule));
      library_col.put(i, static_cast<std::uint8_t>(s.config.library));
      reduction_col.put(i, static_cast<std::uint8_t>(s.config.reduction));
      status_col.put(i, static_cast<std::uint8_t>(s.status));
      is_default_col.put(i, s.is_default ? 1 : 0);

      mean_col.put(i, finite_or_throw(s.mean_runtime, "mean_runtime", i));
      default_col.put(i, finite_or_throw(s.default_runtime, "default_runtime", i));
      speedup_col.put(i, finite_or_throw(s.speedup, "speedup", i));

      for (std::size_t r = 0; r < s.runtimes.size(); ++r) {
        runtime_col.put(i * reps + r, finite_or_throw(s.runtimes[r], "runtime", i));
      }
      error_col.put(i, error_code[i]);
    }
  }

  // ---- header + section table, written last: they carry the checksums ----
  std::string header;
  header.append(kMagic, sizeof(kMagic));
  append_scalar<std::uint32_t>(header, kVersion);
  append_scalar<std::uint32_t>(header, static_cast<std::uint32_t>(header_bytes));
  append_scalar<std::uint64_t>(header, file_bytes);
  append_scalar<std::uint64_t>(header, n);
  append_scalar<std::uint32_t>(header, static_cast<std::uint32_t>(reps));
  append_scalar<std::uint32_t>(header, kSectionCount);
  const std::size_t checksum_at = header.size();
  append_scalar<std::uint64_t>(header, 0);  // header checksum, patched below

  for (std::size_t i = 0; i < kSectionCount; ++i) {
    append_scalar<std::uint32_t>(header, static_cast<std::uint32_t>(kinds[i]));
    append_scalar<std::uint32_t>(header, 0);
    append_scalar<std::uint64_t>(header, offsets[i]);
    append_scalar<std::uint64_t>(header, sizes[i]);
    append_scalar<std::uint64_t>(header,
                                 checksum_bytes(out.data() + offsets[i], sizes[i]));
  }
  if (header.size() != header_bytes) {
    throw std::logic_error("write_store: header layout drifted from format.hpp");
  }

  const std::uint64_t header_checksum = checksum_bytes(header.data(), header.size());
  std::memcpy(header.data() + checksum_at, &header_checksum, sizeof(header_checksum));
  std::memcpy(out.data(), header.data(), header.size());
  return out;
}

void write_store(const std::string& path, const Dataset& dataset) {
  util::atomic_write_file(path, serialize_store(dataset));
}

}  // namespace omptune::store

namespace omptune::sweep {

// Declared in sweep/dataset.hpp, implemented here so the base sweep library
// carries no dependency on the store format.
void Dataset::save_store(const std::string& path) const {
  store::write_store(path, *this);
}

}  // namespace omptune::sweep

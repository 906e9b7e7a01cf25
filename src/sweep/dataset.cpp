#include "sweep/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <stdexcept>

#include "store/reader.hpp"
#include "store/writer.hpp"
#include "util/errors.hpp"
#include "util/strings.hpp"

namespace omptune::sweep {

namespace {

std::string blocktime_to_string(std::int64_t ms) {
  return ms == rt::kBlocktimeInfinite ? "infinite" : std::to_string(ms);
}

std::int64_t blocktime_from_string(const std::string& text) {
  if (text == "infinite") return rt::kBlocktimeInfinite;
  const auto value = util::parse_int(text);
  if (!value) throw std::invalid_argument("bad blocktime '" + text + "'");
  return *value;
}

/// Numeric field that must be finite (runtime/speedup columns).
double finite_cell(const util::CsvTable& table, std::size_t row,
                   const std::string& col) {
  const double value = table.cell_as_double(row, col);
  if (!std::isfinite(value)) {
    throw std::invalid_argument("column '" + col + "' has non-finite value '" +
                                table.cell(row, col) + "'");
  }
  return value;
}

}  // namespace

std::string to_string(SampleStatus status) {
  switch (status) {
    case SampleStatus::Ok: return "ok";
    case SampleStatus::Retried: return "retried";
    case SampleStatus::Quarantined: return "quarantined";
  }
  return "ok";
}

SampleStatus sample_status_from_string(const std::string& text) {
  if (text == "ok" || text.empty()) return SampleStatus::Ok;
  if (text == "retried") return SampleStatus::Retried;
  if (text == "quarantined") return SampleStatus::Quarantined;
  throw std::invalid_argument("bad sample status '" + text + "'");
}

int status_preference(SampleStatus status) {
  switch (status) {
    case SampleStatus::Ok: return 0;
    case SampleStatus::Retried: return 1;
    case SampleStatus::Quarantined: return 2;
  }
  return 2;
}

std::string sample_identity(const Sample& sample) {
  return sample.arch + "/" + sample.app + "/" + sample.input + "/" +
         std::to_string(sample.threads) + "/" + sample.config.key();
}

void Dataset::append(Dataset other) {
  // Range insert grows geometrically; an exact reserve here would reallocate
  // (and move every sample gathered so far) on each append of a loop.
  samples_.insert(samples_.end(),
                  std::make_move_iterator(other.samples_.begin()),
                  std::make_move_iterator(other.samples_.end()));
}

Dataset Dataset::deduped(DedupeReport* report) && {
  if (report) *report = DedupeReport{};
  // Kept rows are compacted to the front: row i only ever moves to a slot
  // at or before i, which the loop has already visited.
  std::map<std::string, std::size_t> first_position;  // identity -> kept slot
  std::size_t kept_rows = 0;
  for (Sample& s : samples_) {
    const auto [it, inserted] =
        first_position.emplace(sample_identity(s), kept_rows);
    if (inserted) {
      Sample& slot = samples_[kept_rows++];
      if (&slot != &s) slot = std::move(s);
      continue;
    }
    if (report) ++report->duplicates;
    Sample& kept = samples_[it->second];
    if (status_preference(s.status) < status_preference(kept.status)) {
      kept = std::move(s);
      if (report) ++report->replaced;
    }
  }
  samples_.erase(samples_.begin() + static_cast<std::ptrdiff_t>(kept_rows),
                 samples_.end());
  return std::move(*this);
}

std::size_t Dataset::quarantined_count() const {
  return static_cast<std::size_t>(
      std::count_if(samples_.begin(), samples_.end(),
                    [](const Sample& s) { return s.is_quarantined(); }));
}

util::CsvTable Dataset::to_csv() const {
  // Fixed repetition count across a dataset.
  std::size_t reps = 0;
  for (const Sample& s : samples_) reps = std::max(reps, s.runtimes.size());

  std::vector<std::string> header = {
      "arch",   "app",      "suite",     "kind",      "input",
      "threads", "places",  "proc_bind", "schedule",  "library",
      "blocktime", "reduction", "align", "mean_runtime", "default_runtime",
      "speedup", "is_default", "status", "attempts", "error"};
  for (std::size_t r = 0; r < reps; ++r) {
    header.push_back("runtime_" + std::to_string(r));
  }

  util::CsvTable table(std::move(header));
  for (const Sample& s : samples_) {
    std::vector<std::string> row = {
        s.arch,
        s.app,
        s.suite,
        s.kind,
        s.input,
        std::to_string(s.threads),
        arch::to_string(s.config.places),
        arch::to_string(s.config.bind),
        rt::to_string(s.config.schedule),
        rt::to_string(s.config.library),
        blocktime_to_string(s.config.blocktime_ms),
        rt::to_string(s.config.reduction),
        std::to_string(s.config.align_alloc),
        util::format_double(s.mean_runtime, 9),
        util::format_double(s.default_runtime, 9),
        util::format_double(s.speedup, 6),
        s.is_default ? "1" : "0",
        to_string(s.status),
        std::to_string(s.attempts),
        s.error,
    };
    for (std::size_t r = 0; r < reps; ++r) {
      row.push_back(r < s.runtimes.size()
                        ? util::format_double(s.runtimes[r], 9)
                        : std::string("0"));
    }
    table.add_row(std::move(row));
  }
  return table;
}

Dataset Dataset::from_csv(const util::CsvTable& table,
                          const std::string& source) {
  Dataset out;
  const auto has_col = [&table](const std::string& name) {
    const auto& header = table.header();
    return std::find(header.begin(), header.end(), name) != header.end();
  };
  // Datasets written before the resilience layer lack the status columns;
  // default those to a clean first-try measurement.
  const bool has_status = has_col("status");
  const bool has_attempts = has_col("attempts");
  const bool has_error = has_col("error");

  // Repetition columns are the trailing runtime_N columns. The block must be
  // exactly runtime_0..runtime_{k-1}, contiguous, at the end of the header:
  // a garbled column name used to silently shrink the block and every row
  // lost a repetition without any error (the short-read path) — now the
  // whole file is rejected as corrupt instead.
  const std::string label =
      source.empty() ? std::string("<dataset>") : source;
  std::vector<std::size_t> rep_cols;
  for (std::size_t c = 0; c < table.header().size(); ++c) {
    if (util::starts_with(table.header()[c], "runtime_")) rep_cols.push_back(c);
  }
  if (!rep_cols.empty()) {
    const std::size_t first = rep_cols.front();
    if (first + rep_cols.size() != table.header().size()) {
      throw util::DataCorruptionError(
          label + ": runtime column block is not contiguous at the end of "
                  "the header (a repetition column would be silently dropped)");
    }
    for (std::size_t r = 0; r < rep_cols.size(); ++r) {
      const std::string expected = "runtime_" + std::to_string(r);
      if (table.header()[first + r] != expected) {
        throw util::DataCorruptionError(
            label + ": runtime column " + std::to_string(r) + " is named '" +
            table.header()[first + r] + "', expected '" + expected + "'");
      }
    }
  }
  for (std::size_t i = 0; i < table.num_rows(); ++i) {
    try {
      Sample s;
      s.arch = table.cell(i, "arch");
      s.app = table.cell(i, "app");
      s.suite = table.cell(i, "suite");
      s.kind = table.cell(i, "kind");
      s.input = table.cell(i, "input");
      s.threads = static_cast<int>(table.cell_as_double(i, "threads"));
      s.config.num_threads = s.threads;
      s.config.places = arch::places_from_string(table.cell(i, "places"));
      s.config.bind = arch::bind_from_string(table.cell(i, "proc_bind"));
      s.config.schedule = rt::schedule_from_string(table.cell(i, "schedule"));
      s.config.library = rt::library_from_string(table.cell(i, "library"));
      s.config.blocktime_ms = blocktime_from_string(table.cell(i, "blocktime"));
      s.config.reduction = rt::reduction_from_string(table.cell(i, "reduction"));
      s.config.align_alloc = static_cast<int>(table.cell_as_double(i, "align"));
      s.mean_runtime = finite_cell(table, i, "mean_runtime");
      s.default_runtime = finite_cell(table, i, "default_runtime");
      s.speedup = finite_cell(table, i, "speedup");
      s.is_default = table.cell(i, "is_default") == "1";
      s.status = has_status ? sample_status_from_string(table.cell(i, "status"))
                            : SampleStatus::Ok;
      s.attempts = has_attempts
                       ? static_cast<int>(table.cell_as_double(i, "attempts"))
                       : 1;
      s.error = has_error ? table.cell(i, "error") : std::string();
      for (const std::size_t c : rep_cols) {
        s.runtimes.push_back(finite_cell(table, i, table.header()[c]));
      }
      out.add(std::move(s));
    } catch (const util::DataCorruptionError&) {
      throw;
    } catch (const std::exception& error) {
      throw util::DataCorruptionError(label + " row " + std::to_string(i + 1) +
                                      ": " + error.what());
    }
  }
  return out;
}

Dataset Dataset::load_csv_file(const std::string& path) {
  try {
    return from_csv(util::CsvTable::read_file(path), path);
  } catch (const util::DataCorruptionError&) {
    throw;
  } catch (const std::exception& error) {
    throw util::DataCorruptionError(path + ": " + error.what());
  }
}

void Dataset::save_store(const std::string& path) const {
  store::write_store(path, *this);
}

Dataset Dataset::load_store(const std::string& path) {
  return store::StoreReader(path).load();
}

}  // namespace omptune::sweep

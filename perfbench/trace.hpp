#pragma once

// In-memory span recorder for the traced (--trace 1) runs.
//
// A span is (name, start, end, parent, thread) tagged with the run's id.
// Spans open and close on the benchmark's side of each layer boundary —
// around the calls the benchmark makes into the omptune modules — so the
// library itself is not instrumented. The layer of a span is its name's
// prefix before the first '.', e.g. "store.save_store" is in "store".
//
// Very frequent calls (one runner call per measurement) are not recorded
// one by one: a delegating timer sums them and the benchmark adds one
// "collapsed" child span per enclosing span, whose duration is that sum and
// whose args carry the call count. Self time — a span's duration minus the
// durations of its children — therefore treats collapsed time like any
// other child time.
//
// Spans stay in memory and are written as Chrome trace-event JSON when the
// run ends. While disabled, span() records nothing and reads no clock.
// Spans may open and close on any thread; set_enabled() may flip while
// other threads trace (a span opened before the flip still closes).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(std::string run_id);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// RAII span: opens on construction (child of the innermost span open on
  /// this thread), closes on destruction or end().
  class Span {
   public:
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { end(); }
    void end();
    /// Record index, or -1 for an inert span.
    int id() const { return id_; }

   private:
    friend class Tracer;
    Span(Tracer* tracer, int id) : tracer_(tracer), id_(id) {}
    Tracer* tracer_;
    int id_;
  };

  Span span(std::string_view name);

  /// Unscoped form of span(), for spans whose end is not lexically nested
  /// (one per setting, closed from a progress callback). begin() returns -1
  /// while disabled; end(-1) is a no-op.
  int begin(std::string_view name);
  void end(int id);

  /// A child of span `parent` standing for `calls` short calls whose
  /// durations sum to `total_ns`; it starts where the parent starts.
  void collapsed(int parent, std::string_view name, std::int64_t total_ns,
                 std::uint64_t calls);

  /// Sum of the durations of every span named `name`, in seconds.
  double total_s(std::string_view name) const;
  /// Same, minus the time covered by each span's direct children.
  double self_s(std::string_view name) const;
  /// Each span named `name`'s duration, in seconds.
  std::vector<double> durations_s(std::string_view name) const;
  std::size_t span_count() const;

  /// Write every span as Chrome trace-event JSON ("X" events).
  void write_chrome_json(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
    int parent = -1;
    unsigned thread = 0;
    std::uint64_t calls = 0;   ///< > 0 for collapsed spans
  };

  std::int64_t now_ns() const;
  unsigned thread_index();  // requires mutex_

  std::string run_id_;
  Clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Record> records_;
  std::vector<std::thread::id> threads_;
};

/// Task times of the passes of one run, by whether tracing was on.
struct PassSeries {
  std::vector<double> untraced;
  std::vector<double> traced;
};

/// Run `pass` (returning its task time in seconds) once untraced to warm
/// up, then over the measurement window: untraced runs repeat it, traced
/// runs repeat whole untraced-traced-traced-untraced blocks, so drift falls
/// on both sides of the tracing overhead. The window ends at the block
/// boundary nearest to --seconds: another block starts only while less
/// than half of a median block would run past it (at least one block
/// runs). The tracer is enabled exactly during the traced passes. The
/// warm-up pass is checked and counted like the others but not timed: the
/// first pass of a run is usually slower than the rest.
template <typename Pass>
PassSeries run_passes(const Options& options, Tracer& tracer, Pass pass) {
  static constexpr bool kBlock[] = {false, true, true, false};
  const std::size_t block = options.trace ? 4 : 1;
  PassSeries series;
  std::vector<double> all;
  tracer.set_enabled(false);
  (void)pass();
  const Clock::time_point window = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced = options.trace && kBlock[i % 4];
    tracer.set_enabled(traced);
    const double task_s = pass();
    tracer.set_enabled(false);
    (traced ? series.traced : series.untraced).push_back(task_s);
    all.push_back(task_s);
    if ((i + 1) % block != 0) continue;
    const double next_block_s = median(all) * static_cast<double>(block);
    if (seconds_since(window) + next_block_s / 2 >= options.seconds) break;
  }
  return series;
}

/// Report trace.untraced_task_s and trace.traced_task_s (medians) and the
/// tracing overhead, their difference.
void report_overhead(const PassSeries& series, Report& report);

}  // namespace perfbench

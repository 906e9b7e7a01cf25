#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unistd.h>

namespace perfbench {

namespace {

/// Open spans of the current thread, innermost last.
thread_local std::vector<int> open_spans;

}  // namespace

Tracer::Tracer(std::string run_id)
    : run_id_(std::move(run_id)), origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

unsigned Tracer::thread_index() {
  const std::thread::id self = std::this_thread::get_id();
  const auto it = std::find(threads_.begin(), threads_.end(), self);
  if (it != threads_.end()) return static_cast<unsigned>(it - threads_.begin());
  threads_.push_back(self);
  return static_cast<unsigned>(threads_.size() - 1);
}

Tracer::Span Tracer::span(std::string_view name) {
  return Span(this, begin(name));
}

int Tracer::begin(std::string_view name) {
  if (!enabled_) return -1;
  const std::int64_t start = now_ns();
  const int parent = open_spans.empty() ? -1 : open_spans.back();
  int id = -1;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(records_.size());
    records_.push_back(Record{std::string(name), start, -1, parent,
                              thread_index(), 0});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::Span::end() {
  tracer_->end(id_);
  id_ = -1;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const std::int64_t end = now_ns();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    records_[static_cast<std::size_t>(id)].end_ns = end;
  }
  const auto it = std::find(open_spans.rbegin(), open_spans.rend(), id);
  if (it != open_spans.rend()) open_spans.erase(std::next(it).base());
}

void Tracer::collapsed(int parent, std::string_view name,
                       std::int64_t total_ns, std::uint64_t calls) {
  if (!enabled_ || parent < 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const Record& of = records_[static_cast<std::size_t>(parent)];
  const std::int64_t start = of.start_ns;
  const unsigned thread = of.thread;
  records_.push_back(Record{std::string(name), start, start + total_ns, parent,
                            thread, calls});
}

std::vector<double> Tracer::durations_s(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name && r.end_ns >= 0) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
    }
  }
  return out;
}

double Tracer::total_s(std::string_view name) const {
  double total = 0.0;
  for (const double d : durations_s(name)) total += d;
  return total;
}

double Tracer::self_s(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0 && r.end_ns >= 0) {
      child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::int64_t self = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.name == name && r.end_ns >= 0) {
      self += r.end_ns - r.start_ns - child_ns[i];
    }
  }
  return static_cast<double>(self) * 1e-9;
}

std::size_t Tracer::span_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

void Tracer::write_chrome_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write trace " + path);
  const long pid = static_cast<long>(::getpid());
  std::fprintf(out,
               "{\"displayTimeUnit\":\"ms\","
               "\"otherData\":{\"run\":\"%s\"},\"traceEvents\":[",
               run_id_.c_str());
  const char* separator = "";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    const std::string layer = r.name.substr(0, r.name.find('.'));
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%ld,\"tid\":%u,"
                 "\"args\":{\"run\":\"%s\",\"id\":%zu,\"parent\":%d",
                 separator, r.name.c_str(), layer.c_str(),
                 static_cast<double>(r.start_ns) * 1e-3,
                 static_cast<double>(r.end_ns - r.start_ns) * 1e-3, pid,
                 r.thread, run_id_.c_str(), i, r.parent);
    if (r.calls > 0) {
      std::fprintf(out, ",\"collapsed_calls\":%llu",
                   static_cast<unsigned long long>(r.calls));
    }
    std::fprintf(out, "}}");
    separator = ",";
  }
  std::fprintf(out, "\n]}\n");
  if (std::fclose(out) != 0) {
    throw std::runtime_error("cannot write trace " + path);
  }
}

void report_overhead(const PassSeries& series, Report& report) {
  const double untraced = median(series.untraced);
  const double traced = median(series.traced);
  report.layer("trace.untraced_task_s", untraced, "s");
  report.layer("trace.traced_task_s", traced, "s");
  report.layer("trace.overhead_s", traced - untraced, "s");
}

}  // namespace perfbench

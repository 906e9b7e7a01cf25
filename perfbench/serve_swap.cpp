// serve_swap: an in-process serve::Server (2 pinned pool lanes) over a
// reduced-plan store, under two closed-loop tuner connections and one
// admin connection that hot-swaps between two store generations.
//
// Set-up (timed) collects the two store generations from the seed — the
// paper plan with every setting cut to kConfigsPerSetting configurations,
// under two study seeds — and boots the server. After it, each
// generation's reference answers are computed in process (KnowledgeBase,
// best_per_setting, value_marginals), with the tuners' (app, arch) pairs
// and probed values. One operation is one request (swaps included); it
// fails when it is refused (shed, deadline, error) or a swap fails.
//
// A tuner session is the dependent round-trip pattern of a tuner: one
// Recommend for an (app, arch), then one Marginal probe per value of each
// variable, walking the returned priority, then a BestSetting lookup per
// setting of the pair. A round is one session per (app, arch) pair, in an
// order each connection draws from the seed once, so every round asks for
// the same work. Each reply must equal the reference answer of the
// generation that served it. task_s is the median round time. Every
// kSwapPeriod the admin connection sends a wire Swap to the other
// generation; the server folds the new snapshot on its IO thread, so the
// swap stalls the rounds that are in flight.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/marginals.hpp"
#include "analysis/speedup.hpp"
#include "bench.hpp"
#include "core/tuner.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "sim/executor.hpp"
#include "store/reader.hpp"
#include "sweep/harness.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace omptune;

constexpr std::size_t kConfigsPerSetting = 40;
constexpr unsigned kServerLanes = 2;
constexpr int kTuners = 2;
/// Seconds between admin swaps; a window shorter than four periods swaps
/// every quarter of the window instead.
constexpr double kSwapPeriod = 2.0;
/// In traced sessions, every kRequestSpanEvery-th also traces its requests.
constexpr std::uint64_t kRequestSpanEvery = 16;

std::string join_key(std::initializer_list<std::string> parts) {
  std::string key;
  for (const std::string& part : parts) key += part + '\x1f';
  return key;
}

struct PairAnswer {
  double speedup = 0.0;
  std::string config_key;
  std::vector<std::string> priority;
};

/// One store generation and its reference answers, computed in process.
/// Keys are join_key() of the fields named beside each map.
struct Generation {
  std::string path;
  std::unordered_map<std::string, PairAnswer> pairs;  // app, arch
  // arch, app, input, threads
  std::unordered_map<std::string, serve::BestConfig> settings;
  // arch, variable, value
  std::unordered_map<std::string, analysis::MarginalRow> marginals;
};

struct Tuned {
  std::string app, arch;
  std::vector<std::pair<std::string, std::int32_t>> settings;  // input, threads
};

struct Setup {
  Generation generations[2];
  std::vector<Tuned> pairs;
  /// Values probed per (arch, variable), from generation 0's marginals.
  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      values;
  std::string socket_path;
  double boot_s = 0.0;
  std::unique_ptr<serve::Server> server;
  /// Set when run() threw (ready() then never turns true).
  std::exception_ptr server_error;
  std::atomic<bool> server_failed{false};
  std::thread server_thread;

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
  ~Setup() {
    if (server) server->request_stop();
    if (server_thread.joinable()) server_thread.join();
  }
};

sweep::StudyPlan reduced_plan() {
  sweep::StudyPlan plan = sweep::StudyPlan::paper_plan();
  for (sweep::ArchPlan& arch_plan : plan.arch_plans) {
    for (std::size_t& configs : arch_plan.configs_per_setting) {
      configs = std::min(configs, kConfigsPerSetting);
    }
  }
  return plan;
}

/// Fill `gen`'s reference answers from its store.
void derive_answers(Generation& gen, std::vector<double>& kb_build_ms) {
  const store::StoreReader reader(gen.path);
  for (const analysis::SettingBest& best : analysis::best_per_setting(reader)) {
    gen.settings[join_key({best.arch, best.app, best.input,
                           std::to_string(best.threads)})] =
        serve::BestConfig{best.best_speedup, best.best_config.key()};
  }
  for (const bool per_arch : {true, false}) {
    for (analysis::MarginalRow& row :
         analysis::value_marginals(reader, per_arch)) {
      const std::string key = join_key({row.arch, row.variable, row.value});
      gen.marginals[key] = std::move(row);
    }
  }
  for (const std::string& arch : reader.archs()) {
    const Clock::time_point start = Clock::now();
    const core::KnowledgeBase kb(reader, arch);
    kb_build_ms.push_back(seconds_since(start) * 1e3);
    for (const store::SettingEntry& entry : reader.settings()) {
      if (entry.arch != arch) continue;
      const std::string key = join_key({entry.app, arch});
      if (gen.pairs.count(key) != 0) continue;
      gen.pairs[key] = PairAnswer{kb.best_known_speedup(entry.app, arch),
                                  kb.best_known_config(entry.app, arch).key(),
                                  kb.variable_priority(entry.app, arch)};
    }
  }
}

std::unique_ptr<Setup> make_setup(const Options& options) {
  auto setup = std::make_unique<Setup>();
  const sweep::StudyPlan plan = reduced_plan();
  const std::filesystem::path dir(options.workdir);
  for (int g = 0; g < 2; ++g) {
    Generation& gen = setup->generations[g];
    gen.path = (dir / ("generation" + std::to_string(g) + ".omps")).string();
    sim::ModelRunner model;
    sweep::SweepHarness harness(
        model, 4, util::hash_combine(study_seed(options.seed), g));
    harness.run_study(plan).save_store(gen.path);
  }

  // A unix socket path must fit sun_path; bind it relative to the working
  // directory, which is the checkout root.
  setup->socket_path =
      std::filesystem::relative(dir / "serve.sock").string();
  if (setup->socket_path.size() >= 100) {
    throw std::runtime_error("socket path too long: " + setup->socket_path);
  }
  serve::ServerOptions server_options;
  server_options.socket_path = setup->socket_path;
  server_options.threads = kServerLanes;
  server_options.handle_signals = false;
  const Clock::time_point boot = Clock::now();
  setup->server = std::make_unique<serve::Server>(
      std::vector<std::string>{setup->generations[0].path}, server_options);
  serve::Server& server = *setup->server;
  Setup& state = *setup;
  setup->server_thread = std::thread([&server, &state] {
    try {
      server.run();
    } catch (...) {
      state.server_error = std::current_exception();
      state.server_failed.store(true);
    }
  });
  while (!server.ready()) {
    if (setup->server_failed.load()) {
      std::rethrow_exception(setup->server_error);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  setup->boot_s = seconds_since(boot);
  return setup;
}

/// Every generation's reference answers, and the tuners' (app, arch) pairs
/// and probed values from generation 0. Returns the KnowledgeBase build
/// times.
std::vector<double> derive_expected(Setup& setup) {
  std::vector<double> kb_build_ms;
  for (Generation& gen : setup.generations) derive_answers(gen, kb_build_ms);
  for (const auto& [key, row] : setup.generations[0].marginals) {
    if (row.arch != "all") {
      setup.values[{row.arch, row.variable}].push_back(row.value);
    }
  }
  const store::StoreReader reader(setup.generations[0].path);
  for (const store::SettingEntry& entry : reader.settings()) {
    auto it = std::find_if(setup.pairs.begin(), setup.pairs.end(),
                           [&](const Tuned& t) {
                             return t.app == entry.app && t.arch == entry.arch;
                           });
    if (it == setup.pairs.end()) {
      setup.pairs.push_back(Tuned{entry.app, entry.arch, {}});
      it = std::prev(setup.pairs.end());
    }
    it->settings.emplace_back(entry.input, entry.threads);
  }
  return kb_build_ms;
}

/// The answer the server must give, from the generation that served it
/// (boot is generation 1 = generations[0]; swaps alternate).
bool reply_matches(const Setup& setup, const serve::Request& request,
                   const serve::Response& reply) {
  if (reply.generation == 0) return false;
  const Generation& gen = setup.generations[(reply.generation - 1) % 2];
  switch (request.type) {
    case serve::MsgType::Recommend: {
      const auto it = gen.pairs.find(join_key({request.app, request.arch}));
      return reply.type == serve::MsgType::RecommendReply &&
             it != gen.pairs.end() && reply.found &&
             reply.speedup == it->second.speedup &&
             reply.config_key == it->second.config_key &&
             reply.variable_priority == it->second.priority;
    }
    case serve::MsgType::BestSetting: {
      const auto it =
          gen.settings.find(join_key({request.arch, request.app, request.input,
                                      std::to_string(request.threads)}));
      if (reply.type != serve::MsgType::BestSettingReply) return false;
      if (it == gen.settings.end()) return !reply.found;
      return reply.found && reply.speedup == it->second.speedup &&
             reply.config_key == it->second.config_key;
    }
    case serve::MsgType::Marginal: {
      const auto it = gen.marginals.find(
          join_key({request.arch, request.variable, request.value}));
      if (reply.type != serve::MsgType::MarginalReply) return false;
      if (it == gen.marginals.end()) return !reply.found;
      const analysis::MarginalRow& row = it->second;
      return reply.found && reply.samples == row.samples &&
             reply.mean_speedup == row.mean_speedup &&
             reply.median_speedup == row.median_speedup &&
             reply.p95_speedup == row.p95_speedup &&
             reply.optimal_share == row.optimal_share;
    }
    default:
      return false;
  }
}

bool is_refusal(const serve::Response& reply) {
  return reply.type == serve::MsgType::Overloaded ||
         reply.type == serve::MsgType::DeadlineExceeded ||
         reply.type == serve::MsgType::Error;
}

const char* span_name(serve::MsgType type) {
  switch (type) {
    case serve::MsgType::Recommend: return "serve.recommend";
    case serve::MsgType::BestSetting: return "serve.best_setting";
    default: return "serve.marginal";
  }
}

/// Request latencies in fixed log-spaced buckets (0.5% wide, 1 µs to
/// ~100 s, refusals in the last), so the record costs the same memory at
/// any request rate and stays out of peak_rss_mb.
class LatencyHistogram {
 public:
  void add(double us) {
    std::size_t bucket = kBuckets - 1;
    if (std::isfinite(us)) {
      const double index = std::log(std::max(us, 1.0)) / std::log(kWidth);
      bucket = std::min(static_cast<std::size_t>(index), kBuckets - 2);
    }
    ++counts_[bucket];
    ++total_;
  }
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  std::uint64_t total() const { return total_; }
  /// Upper edge of the bucket holding the q-quantile; `refused_us` for a
  /// quantile that falls among refusals.
  double quantile(double q, double refused_us) const {
    const double rank = std::ceil(q * static_cast<double>(total_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i + 1 < kBuckets; ++i) {
      seen += counts_[i];
      if (static_cast<double>(seen) >= rank) {
        return std::pow(kWidth, static_cast<double>(i + 1));
      }
    }
    return refused_us;
  }

 private:
  static constexpr double kWidth = 1.005;
  static constexpr std::size_t kBuckets = 3700;
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t total_ = 0;
};

/// What one tuner connection observed, split by whether the round ran
/// untraced [0] or traced [1].
struct TunerLog {
  LatencyHistogram latency_us[2];  ///< refusals count as +inf
  std::vector<double> round_s[2];
  std::uint64_t requests[2] = {0, 0};
  std::uint64_t refused = 0;
  std::uint64_t mismatched = 0;
  std::exception_ptr error;
};

void tuner_loop(const Setup& setup, std::uint64_t seed, Tracer& tracer,
                const std::atomic<bool>& stop, TunerLog& log) {
  try {
    serve::Client client = serve::Client::connect_unix(setup.socket_path);
    util::Xoshiro256 rng(seed);
    std::uint64_t sessions = 0;
    int mode = 0;
    bool request_spans = false;
    const auto ask = [&](const serve::Request& request) {
      const int span =
          request_spans ? tracer.begin(span_name(request.type)) : -1;
      const Clock::time_point start = Clock::now();
      serve::Response reply = client.call_one(request);
      const double us = seconds_since(start) * 1e6;
      tracer.end(span);
      ++log.requests[mode];
      if (is_refusal(reply)) {
        ++log.refused;
        log.latency_us[mode].add(std::numeric_limits<double>::infinity());
      } else {
        log.latency_us[mode].add(us);
        if (!reply_matches(setup, request, reply)) ++log.mismatched;
      }
      return reply;
    };
    // This connection's round: every (app, arch) pair once, in its own
    // seed-chosen order, so every round asks for the same work.
    std::vector<std::size_t> order(setup.pairs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    while (!stop.load(std::memory_order_relaxed)) {
      mode = tracer.enabled() ? 1 : 0;
      const Clock::time_point start = Clock::now();
      for (const std::size_t p : order) {
        request_spans = mode == 1 && sessions % kRequestSpanEvery == 0;
        const Tracer::Span span = tracer.span("serve.session");
        const Tuned& pair = setup.pairs[p];
        serve::Request request;
        request.type = serve::MsgType::Recommend;
        request.app = pair.app;
        request.arch = pair.arch;
        const serve::Response recommended = ask(request);
        request.type = serve::MsgType::Marginal;
        for (const std::string& variable : recommended.variable_priority) {
          const auto values = setup.values.find({pair.arch, variable});
          if (values == setup.values.end()) continue;
          request.variable = variable;
          for (const std::string& value : values->second) {
            request.value = value;
            (void)ask(request);
          }
        }
        request.type = serve::MsgType::BestSetting;
        for (const auto& [input, threads] : pair.settings) {
          request.input = input;
          request.threads = threads;
          (void)ask(request);
        }
        ++sessions;
      }
      log.round_s[mode].push_back(seconds_since(start));
    }
  } catch (...) {
    log.error = std::current_exception();
  }
}

struct AdminLog {
  std::vector<double> swap_ms;
  std::uint64_t failed = 0;
  std::exception_ptr error;
};

void admin_loop(const Setup& setup, double period_s, Tracer& tracer,
                const std::atomic<bool>& stop, AdminLog& log) {
  try {
    serve::Client client = serve::Client::connect_unix(setup.socket_path);
    std::uint64_t generation = setup.server->generation();
    Clock::time_point next = Clock::now();
    while (true) {
      next += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(period_s));
      while (Clock::now() < next && !stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (stop.load(std::memory_order_relaxed)) break;
      serve::Request swap;
      swap.type = serve::MsgType::Swap;
      swap.store_paths = {setup.generations[generation % 2].path};
      const Clock::time_point start = Clock::now();
      serve::Response reply;
      {
        Tracer::Span span = tracer.span("serve.swap");
        reply = client.call_one(swap);
      }
      log.swap_ms.push_back(seconds_since(start) * 1e3);
      if (reply.type == serve::MsgType::SwapReply && reply.found &&
          reply.generation == generation + 1) {
        generation = reply.generation;
      } else {
        ++log.failed;
      }
    }
  } catch (...) {
    log.error = std::current_exception();
  }
}

}  // namespace

void run_serve_swap(const Options& options, Tracer& tracer, Report& report) {
  std::vector<double> boots;
  const auto make = [&] {
    auto made = make_setup(options);
    boots.push_back(made->boot_s);
    return made;
  };
  std::unique_ptr<Setup> setup = timed_setup(report, make);
  const std::vector<double> kb_ms = derive_expected(*setup);
  report.reset_peak_rss();

  const serve::ServerCounters before = setup->server->counters();
  std::atomic<bool> stop{false};
  std::vector<TunerLog> tuners(kTuners);
  AdminLog admin;
  std::vector<std::thread> threads;
  const Clock::time_point window = Clock::now();
  for (int t = 0; t < kTuners; ++t) {
    threads.emplace_back(tuner_loop, std::cref(*setup),
                         util::hash_combine(options.seed, 100 + t),
                         std::ref(tracer), std::cref(stop),
                         std::ref(tuners[t]));
  }
  threads.emplace_back(admin_loop, std::cref(*setup),
                       std::min(kSwapPeriod, options.seconds / 4),
                       std::ref(tracer), std::cref(stop), std::ref(admin));
  // A traced run traces the middle half of the window; the first and last
  // quarters are its untraced baseline, over which the serve figures are
  // taken.
  const auto sleep_until = [&](double at_s) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(at_s - seconds_since(window)));
  };
  if (options.trace) {
    sleep_until(options.seconds / 4);
    tracer.set_enabled(true);
    sleep_until(options.seconds * 3 / 4);
    tracer.set_enabled(false);
  }
  sleep_until(options.seconds);
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  const double untraced_window_s =
      seconds_since(window) / (options.trace ? 2.0 : 1.0);
  report.record_peak_rss();
  for (const TunerLog& log : tuners) {
    if (log.error) std::rethrow_exception(log.error);
  }
  if (admin.error) std::rethrow_exception(admin.error);
  const serve::ServerCounters after = setup->server->counters();

  LatencyHistogram latency;
  std::vector<double> rounds[2];
  std::uint64_t requests[2] = {0, 0}, refused = 0, mismatched = 0;
  for (const TunerLog& log : tuners) {
    latency.merge(log.latency_us[0]);
    for (int mode = 0; mode < 2; ++mode) {
      rounds[mode].insert(rounds[mode].end(), log.round_s[mode].begin(),
                          log.round_s[mode].end());
      requests[mode] += log.requests[mode];
    }
    refused += log.refused;
    mismatched += log.mismatched;
  }
  report.count(requests[0] + requests[1] + admin.swap_ms.size(),
               refused + admin.failed);
  report.check(mismatched == 0,
               std::to_string(mismatched) +
                   " served replies differ from the in-process answers of "
                   "their generation");
  report.check(admin.failed == 0 && !admin.swap_ms.empty(),
               "admin swaps failed or none ran");
  // The second set-up sample needs the socket, so the live server goes
  // first. The new state serves the same generation files.
  setup.reset();
  setup = timed_setup(report, make);

  if (!options.trace) {
    report.e2e("task_s", median(rounds[0]), "s");
    return;
  }
  // A refused request misses every percentile: it reads as the window.
  const double refused_us = untraced_window_s * 1e6;
  report.layer("trace.untraced_task_s", median(rounds[0]), "s");
  report.layer("trace.traced_task_s", median(rounds[1]), "s");
  report.layer("trace.overhead_s", median(rounds[1]) - median(rounds[0]),
               "s");
  report.layer("serve.requests", static_cast<double>(requests[0]), "count");
  report.layer("serve.qps",
               static_cast<double>(requests[0]) / untraced_window_s, "1/s");
  report.layer("serve.p50_us", latency.quantile(0.50, refused_us), "us");
  report.layer("serve.p99_us", latency.quantile(0.99, refused_us), "us");
  // The highest percentile with at least ten requests beyond it: where the
  // few requests stalled behind a snapshot fold show.
  const double requests_seen =
      static_cast<double>(std::max<std::uint64_t>(latency.total(), 10));
  report.layer("serve.tail_us",
               latency.quantile(1.0 - 10.0 / requests_seen, refused_us), "us");
  report.layer("serve.boot_s", median(boots), "s");
  report.layer("core.kb_build_ms", median(kb_ms), "ms");
  report.layer("serve.swap_ms", median(admin.swap_ms), "ms");
  report.layer("serve.swaps", static_cast<double>(admin.swap_ms.size()),
               "count");
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  report.layer("serve.cache_hits", hits, "count");
  report.layer("serve.cache_misses", misses, "count");
  report.layer("serve.cache_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  const double batches = static_cast<double>(after.batches - before.batches);
  report.layer("serve.replies_per_batch",
               batches > 0
                   ? static_cast<double>(after.served - before.served) / batches
                   : 0.0, "replies/batch");
  report.layer("serve.shed", static_cast<double>(after.shed - before.shed),
               "count");
  report.layer("serve.deadline_exceeded",
               static_cast<double>(after.deadline_exceeded -
                                   before.deadline_exceeded), "count");
  report.layer("serve.wire_errors",
               static_cast<double>(after.wire_errors - before.wire_errors),
               "count");
  tracer.set_enabled(true);
  {
    const util::ThreadPool lanes(kServerLanes);
    const Tracer::Span load = tracer.span("serve.snapshot_load");
    (void)serve::Snapshot::load({setup->generations[1].path}, 1, &lanes);
  }
  report.layer("serve.snapshot_load_ms",
               tracer.total_s("serve.snapshot_load") * 1e3, "ms");
}

}  // namespace perfbench

// The tuning service end to end: the wire protocol must round-trip every
// message type and reject malformed bytes as typed WireErrors; the reply
// cache must behave as a generation-keyed LRU; a snapshot must answer
// exactly what the analysis stack answers offline; and the server must
// batch, shed, hot-swap and drain over a real unix socket — including the
// headline guarantee that a hot-swap mid-load drops zero in-flight
// queries.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <set>
#include <thread>

#include "core/study.hpp"
#include "core/tuner.hpp"
#include "analysis/marginals.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"
#include "sim/executor.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "sweep/harness.hpp"
#include "util/fs.hpp"
#include "util/process.hpp"

namespace omptune {
namespace {

std::string temp_dir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("omptune_serve_" + tag + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  util::create_directories(dir);
  return dir;
}

sweep::Dataset study_dataset(std::uint64_t seed) {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 3, seed);
  return harness.run_study(sweep::StudyPlan::mini_plan(2, 6));
}

/// Write a small study store and remember an (app, arch) pair it contains.
struct StoreFixture {
  std::string path;
  std::string app;
  std::string arch;
  sweep::Dataset dataset;

  StoreFixture(const std::string& dir, const std::string& name,
               std::uint64_t seed)
      : path(util::path_join(dir, name)), dataset(study_dataset(seed)) {
    store::write_store(path, dataset);
    app = dataset.samples().front().app;
    arch = dataset.samples().front().arch;
  }
};

/// run() on a background thread, with exceptions carried back to the test.
struct TestServer {
  serve::Server server;
  std::thread thread;
  std::exception_ptr error;

  TestServer(std::vector<std::string> stores, serve::ServerOptions options)
      : server(std::move(stores), std::move(options)) {
    thread = std::thread([this] {
      try {
        server.run();
      } catch (...) {
        error = std::current_exception();
      }
    });
    const std::int64_t deadline = util::monotonic_ms() + 10000;
    while (!server.ready() && util::monotonic_ms() < deadline) {
      if (error) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (error) std::rethrow_exception(error);
    EXPECT_TRUE(server.ready());
  }

  void stop_and_join() {
    server.request_stop();
    if (thread.joinable()) thread.join();
    if (error) std::rethrow_exception(error);
  }

  ~TestServer() {
    server.request_stop();
    if (thread.joinable()) thread.join();
  }
};

serve::Request recommend_request(const std::string& app,
                                 const std::string& arch) {
  serve::Request request;
  request.type = serve::MsgType::Recommend;
  request.app = app;
  request.arch = arch;
  return request;
}

// ---- wire ------------------------------------------------------------------

TEST(ServeWire, RequestsRoundTrip) {
  serve::Request request;
  request.type = serve::MsgType::BestSetting;
  request.app = "xsbench";
  request.arch = "milan";
  request.input = "large";
  request.threads = 48;
  std::string bytes;
  serve::encode_request(bytes, request);
  ASSERT_EQ(serve::frame_size(bytes), bytes.size());
  const serve::Request decoded =
      serve::decode_request(std::string_view(bytes).substr(4));
  EXPECT_EQ(decoded.type, request.type);
  EXPECT_EQ(decoded.app, request.app);
  EXPECT_EQ(decoded.arch, request.arch);
  EXPECT_EQ(decoded.input, request.input);
  EXPECT_EQ(decoded.threads, request.threads);

  serve::Request swap;
  swap.type = serve::MsgType::Swap;
  swap.store_paths = {"a.omps", "b.omps", "c.omps"};
  bytes.clear();
  serve::encode_request(bytes, swap);
  EXPECT_EQ(serve::decode_request(std::string_view(bytes).substr(4)).store_paths,
            swap.store_paths);
}

TEST(ServeWire, ResponsesRoundTrip) {
  serve::Response response;
  response.type = serve::MsgType::RecommendReply;
  response.generation = 7;
  response.found = true;
  response.speedup = 1.75;
  response.config_key = "KMP_LIBRARY=turnaround OMP_PLACES=cores";
  response.variable_priority = {"KMP_LIBRARY", "OMP_PLACES", "OMP_PROC_BIND"};
  std::string bytes;
  serve::encode_response(bytes, response);
  ASSERT_EQ(serve::frame_size(bytes), bytes.size());
  const serve::Response decoded =
      serve::decode_response(std::string_view(bytes).substr(4));
  EXPECT_EQ(decoded.type, response.type);
  EXPECT_EQ(decoded.generation, response.generation);
  EXPECT_TRUE(decoded.found);
  EXPECT_DOUBLE_EQ(decoded.speedup, response.speedup);
  EXPECT_EQ(decoded.config_key, response.config_key);
  EXPECT_EQ(decoded.variable_priority, response.variable_priority);

  serve::Response stats;
  stats.type = serve::MsgType::StatsReply;
  stats.generation = 3;
  stats.served = 12345;
  stats.batches = 99;
  stats.cache_hits = 1000;
  stats.cache_misses = 11;
  stats.shed = 4;
  stats.swaps = 2;
  stats.connections_accepted = 17;
  stats.connections_active = 5;
  stats.store_rows = 4242;
  stats.shards = 3;
  bytes.clear();
  serve::encode_response(bytes, stats);
  const serve::Response back =
      serve::decode_response(std::string_view(bytes).substr(4));
  EXPECT_EQ(back.served, stats.served);
  EXPECT_EQ(back.batches, stats.batches);
  EXPECT_EQ(back.cache_hits, stats.cache_hits);
  EXPECT_EQ(back.shed, stats.shed);
  EXPECT_EQ(back.connections_accepted, stats.connections_accepted);
  EXPECT_EQ(back.store_rows, stats.store_rows);
  EXPECT_EQ(back.shards, stats.shards);
}

TEST(ServeWire, MarginalReplyRoundTrips) {
  serve::Response marginal;
  marginal.type = serve::MsgType::MarginalReply;
  marginal.found = true;
  marginal.samples = 321;
  marginal.mean_speedup = 1.1;
  marginal.median_speedup = 1.05;
  marginal.p95_speedup = 1.9;
  marginal.optimal_share = 0.4;
  std::string bytes;
  serve::encode_response(bytes, marginal);
  const serve::Response back =
      serve::decode_response(std::string_view(bytes).substr(4));
  EXPECT_EQ(back.samples, marginal.samples);
  EXPECT_DOUBLE_EQ(back.median_speedup, marginal.median_speedup);
  EXPECT_DOUBLE_EQ(back.optimal_share, marginal.optimal_share);
}

TEST(ServeWire, FrameSizeHandlesPartialAndOversized) {
  std::string bytes;
  serve::encode_request(bytes, recommend_request("app", "arch"));
  // Any strict prefix is "incomplete", never an error.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(serve::frame_size(std::string_view(bytes).substr(0, cut)), 0u);
  }
  // A declared length beyond the cap is a protocol violation immediately.
  std::string oversized(4, '\0');
  const std::uint32_t huge = serve::kMaxFrameBytes + 1;
  std::memcpy(oversized.data(), &huge, 4);
  EXPECT_THROW(serve::frame_size(oversized), serve::WireError);
}

TEST(ServeWire, MalformedPayloadsThrowWireError) {
  EXPECT_THROW(serve::decode_request(""), serve::WireError);
  EXPECT_THROW(serve::decode_request("\xee"), serve::WireError);  // unknown type
  // Recommend with a string length running off the end.
  std::string truncated;
  truncated.push_back(static_cast<char>(serve::MsgType::Recommend));
  truncated.push_back('\x40');
  truncated.push_back('\x00');
  EXPECT_THROW(serve::decode_request(truncated), serve::WireError);
  // Trailing garbage after a well-formed message is rejected too.
  std::string framed;
  serve::encode_request(framed, recommend_request("a", "b"));
  std::string payload(std::string_view(framed).substr(4));
  payload += "junk";
  EXPECT_THROW(serve::decode_request(payload), serve::WireError);
  // A reply type is not a request.
  EXPECT_FALSE(serve::is_request_type(serve::MsgType::RecommendReply));
  EXPECT_TRUE(serve::is_request_type(serve::MsgType::Marginal));
}

// ---- cache -----------------------------------------------------------------

TEST(ReplyCache, LruEvictsOldestAndRefreshesOnHit) {
  serve::ReplyCache cache(2);
  const std::string a = serve::ReplyCache::make_key(1, "a");
  const std::string b = serve::ReplyCache::make_key(1, "b");
  const std::string c = serve::ReplyCache::make_key(1, "c");
  cache.insert(a, "reply-a");
  cache.insert(b, "reply-b");
  std::string out;
  ASSERT_TRUE(cache.lookup(a, out));  // refresh a: b is now the LRU entry
  EXPECT_EQ(out, "reply-a");
  cache.insert(c, "reply-c");
  out.clear();
  EXPECT_FALSE(cache.lookup(b, out)) << "b should have been evicted";
  EXPECT_TRUE(cache.lookup(a, out));
  EXPECT_TRUE(cache.lookup(c, out));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ReplyCache, HitAppendsWithoutClobbering) {
  serve::ReplyCache cache(4);
  const std::string key = serve::ReplyCache::make_key(1, "x");
  cache.insert(key, "frame");
  std::string out = "prefix-";
  ASSERT_TRUE(cache.lookup(key, out));
  EXPECT_EQ(out, "prefix-frame");
}

TEST(ReplyCache, GenerationKeysAreDistinctAndPurgeable) {
  serve::ReplyCache cache(8);
  const std::string gen1 = serve::ReplyCache::make_key(1, "same-request");
  const std::string gen2 = serve::ReplyCache::make_key(2, "same-request");
  ASSERT_NE(gen1, gen2) << "generation must be part of the key";
  cache.insert(gen1, "old");
  cache.insert(gen2, "new");
  cache.purge_below(2);
  std::string out;
  EXPECT_FALSE(cache.lookup(gen1, out));
  ASSERT_TRUE(cache.lookup(gen2, out));
  EXPECT_EQ(out, "new");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ReplyCache, ZeroCapacityDisables) {
  serve::ReplyCache cache(0);
  const std::string key = serve::ReplyCache::make_key(1, "x");
  cache.insert(key, "frame");
  std::string out;
  EXPECT_FALSE(cache.lookup(key, out));
  EXPECT_EQ(cache.size(), 0u);
}

// ---- snapshot --------------------------------------------------------------

TEST(Snapshot, AnswersMatchOfflineAnalysis) {
  const std::string dir = temp_dir("snapshot");
  const StoreFixture store(dir, "a.omps", 5);
  const auto snapshot = serve::Snapshot::load({store.path}, 1);
  ASSERT_EQ(snapshot->generation(), 1u);
  EXPECT_EQ(snapshot->shard_count(), 1u);
  EXPECT_EQ(snapshot->rows(), store.dataset.size());

  // Best config per (app, arch) equals the knowledge base's answer.
  const sweep::Dataset ok = store.dataset.ok_samples();  // KB borrows it
  const core::KnowledgeBase kb(ok, 1.01);
  const serve::BestConfig* best =
      snapshot->best_for_pair(store.app, store.arch);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->config_key,
            kb.best_known_config(store.app, store.arch).key());
  EXPECT_DOUBLE_EQ(best->speedup,
                   kb.best_known_speedup(store.app, store.arch));

  // Variable priority equals the knowledge base ladder, including the
  // fallback for a pair the study never ran.
  const auto* priority = snapshot->priority(store.app, store.arch);
  ASSERT_NE(priority, nullptr);
  EXPECT_EQ(*priority, kb.variable_priority(store.app, store.arch));
  const auto* fallback = snapshot->priority("no-such-app", store.arch);
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(*fallback, kb.variable_priority("no-such-app", store.arch));

  // Marginals equal value_marginals, pooled and per-arch.
  const auto pooled = analysis::value_marginals(store.dataset.ok_samples(), false);
  ASSERT_FALSE(pooled.empty());
  const analysis::MarginalRow& row = pooled.front();
  const analysis::MarginalRow* got =
      snapshot->marginal("all", row.variable, row.value);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->samples, row.samples);
  EXPECT_DOUBLE_EQ(got->median_speedup, row.median_speedup);
  EXPECT_EQ(snapshot->marginal("no-such-arch", row.variable, row.value),
            nullptr);

  // An unknown pair has no best config but still gets a priority ladder.
  EXPECT_EQ(snapshot->best_for_pair("no-such-app", store.arch), nullptr);
}

TEST(Snapshot, QuarantinedRowsStayOutOfEveryPriority) {
  // Quarantined placeholders (speedup 0) are not measurements: the knowledge
  // base, a one-shard snapshot and a two-shard snapshot must all rank the
  // pair's variables as analyze's Fig 4 row does, from the ok rows alone.
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 2, 5);
  const sweep::Dataset collected =
      harness.run_study(sweep::StudyPlan::mini_plan(3, 200));
  const std::string arch = "a64fx";
  const std::string app = "alignment";
  std::vector<sweep::Sample> samples = collected.samples();
  std::size_t non_default = 0, quarantined = 0;
  for (sweep::Sample& s : samples) {
    if (s.arch != arch || s.app != app || s.is_default) continue;
    if (non_default++ % 3 != 0) continue;
    s.status = sweep::SampleStatus::Quarantined;
    s.error = "synthetic placeholder";
    s.runtimes.assign(s.runtimes.size(), 0.0);
    s.mean_runtime = 0.0;
    s.speedup = 0.0;
    ++quarantined;
  }
  ASSERT_GT(quarantined, 0u);
  const sweep::Dataset dataset(std::move(samples));

  const core::StudyResult analysed = core::Study(runner).analyze(dataset);
  const std::vector<std::string> fig4 = core::priority_ladder(
      app, arch,
      [&]() -> const analysis::InfluenceMap& {
        return analysed.per_arch_app_influence;
      },
      [&]() -> const analysis::InfluenceMap& {
        return analysed.per_arch_influence;
      });

  const std::string dir = temp_dir("snapshot_quarantine");
  const std::string whole = util::path_join(dir, "whole.omps");
  const std::string ours = util::path_join(dir, "a64fx.omps");
  const std::string rest = util::path_join(dir, "rest.omps");
  store::write_store(whole, dataset);
  store::write_store(ours, dataset.filter([&](const sweep::Sample& s) {
    return s.arch == arch;
  }));
  store::write_store(rest, dataset.filter([&](const sweep::Sample& s) {
    return s.arch != arch;
  }));

  EXPECT_EQ(core::KnowledgeBase(dataset).variable_priority(app, arch), fig4);
  const store::StoreReader reader(whole);
  EXPECT_EQ(core::KnowledgeBase(reader, arch).variable_priority(app, arch),
            fig4);

  const auto one_shard = serve::Snapshot::load({whole}, 1);
  const auto two_shards = serve::Snapshot::load({ours, rest}, 2);
  ASSERT_NE(one_shard->priority(app, arch), nullptr);
  ASSERT_NE(two_shards->priority(app, arch), nullptr);
  EXPECT_EQ(*one_shard->priority(app, arch), fig4);
  EXPECT_EQ(*two_shards->priority(app, arch), fig4);

  // The best-known answers skip the placeholders as well: the store-backed
  // knowledge base (column slices) equals the dataset-backed one (a walk of
  // the samples) and both equal the best ok row.
  const sweep::Sample* best = nullptr;
  for (const sweep::Sample& s : dataset.samples()) {
    if (s.arch != arch || s.app != app || s.is_quarantined()) continue;
    if (best == nullptr || s.speedup > best->speedup) best = &s;
  }
  ASSERT_NE(best, nullptr);
  const core::KnowledgeBase from_dataset(dataset);
  const core::KnowledgeBase from_store(reader, arch);
  EXPECT_EQ(from_dataset.best_known_speedup(app, arch), best->speedup);
  EXPECT_EQ(from_dataset.best_known_config(app, arch), best->config);
  EXPECT_EQ(from_store.best_known_speedup(app, arch), best->speedup);
  EXPECT_EQ(from_store.best_known_config(app, arch).key(),
            best->config.key());
  std::filesystem::remove_all(dir);
}

TEST(Snapshot, MultiShardMergesAndLabelsOpenFailures) {
  const std::string dir = temp_dir("snapshot_multi");
  const StoreFixture a(dir, "a.omps", 5);
  const StoreFixture b(dir, "b.omps", 9);
  const auto snapshot = serve::Snapshot::load({a.path, b.path}, 3);
  EXPECT_EQ(snapshot->shard_count(), 2u);
  EXPECT_EQ(snapshot->rows(), a.dataset.size() + b.dataset.size());
  EXPECT_NE(snapshot->best_for_pair(a.app, a.arch), nullptr);

  // A missing shard fails the whole load with the path and the generation
  // it was meant to become (satellite: typed open errors).
  const std::string missing = util::path_join(dir, "gone.omps");
  try {
    serve::Snapshot::load({a.path, missing}, 4);
    FAIL() << "expected StoreOpenError";
  } catch (const util::StoreOpenError& error) {
    EXPECT_EQ(error.path(), missing);
    EXPECT_EQ(error.generation(), 4u);
    EXPECT_NE(std::string(error.what()).find("generation 4"),
              std::string::npos);
  }
}

// ---- server ----------------------------------------------------------------

serve::ServerOptions test_options(const std::string& dir) {
  serve::ServerOptions options;
  options.socket_path = util::path_join(dir, "s.sock");
  options.handle_signals = false;  // the guard is process-global
  return options;
}

TEST(Server, BatchedQueriesStatsAndCacheHits) {
  const std::string dir = temp_dir("server_basic");
  const StoreFixture store(dir, "a.omps", 5);
  TestServer ts({store.path}, test_options(dir));

  serve::Client client =
      serve::Client::connect_unix(util::path_join(dir, "s.sock"));
  // One pipelined batch mixing every query type plus a stats probe.
  serve::Request best;
  best.type = serve::MsgType::BestSetting;
  const sweep::Sample& sample = store.dataset.samples().front();
  best.arch = sample.arch;
  best.app = sample.app;
  best.input = sample.input;
  best.threads = sample.threads;
  serve::Request marginal;
  marginal.type = serve::MsgType::Marginal;
  marginal.arch = "all";
  {
    const auto rows = analysis::value_marginals(store.dataset.ok_samples(), false);
    marginal.variable = rows.front().variable;
    marginal.value = rows.front().value;
  }
  serve::Request stats;
  stats.type = serve::MsgType::Stats;

  const std::vector<serve::Response> replies = client.call(
      {recommend_request(store.app, store.arch), best, marginal, stats});
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[0].type, serve::MsgType::RecommendReply);
  ASSERT_TRUE(replies[0].found);
  EXPECT_GT(replies[0].speedup, 0.0);
  EXPECT_FALSE(replies[0].config_key.empty());
  EXPECT_FALSE(replies[0].variable_priority.empty());
  EXPECT_EQ(replies[0].generation, 1u);
  EXPECT_EQ(replies[1].type, serve::MsgType::BestSettingReply);
  EXPECT_TRUE(replies[1].found);
  EXPECT_EQ(replies[2].type, serve::MsgType::MarginalReply);
  EXPECT_TRUE(replies[2].found);
  EXPECT_GT(replies[2].samples, 0u);
  EXPECT_EQ(replies[3].type, serve::MsgType::StatsReply);
  EXPECT_EQ(replies[3].generation, 1u);
  EXPECT_GT(replies[3].store_rows, 0u);

  // The same recommendation again is a cache hit with an identical answer.
  const serve::Response again =
      client.call_one(recommend_request(store.app, store.arch));
  EXPECT_EQ(again.config_key, replies[0].config_key);
  ts.stop_and_join();

  const serve::ServerCounters counters = ts.server.counters();
  EXPECT_EQ(counters.served, 5u);
  EXPECT_GE(counters.batches, 2u);
  EXPECT_GE(counters.cache_hits, 1u);
  EXPECT_EQ(counters.connections_accepted, 1u);
  EXPECT_EQ(counters.connections_closed, 1u);
  EXPECT_EQ(counters.connections_active, 0u);
  EXPECT_TRUE(counters.drained_cleanly);
}

TEST(Server, UnknownPairAnswersNotFoundNotError) {
  const std::string dir = temp_dir("server_miss");
  const StoreFixture store(dir, "a.omps", 5);
  TestServer ts({store.path}, test_options(dir));
  serve::Client client =
      serve::Client::connect_unix(util::path_join(dir, "s.sock"));
  const serve::Response reply =
      client.call_one(recommend_request("no-such-app", store.arch));
  EXPECT_EQ(reply.type, serve::MsgType::RecommendReply);
  EXPECT_FALSE(reply.found);
  EXPECT_FALSE(reply.variable_priority.empty())
      << "the priority ladder still answers for unknown apps";
  ts.stop_and_join();
}

TEST(Server, ShedsLoadBeyondAdmissionBound) {
  const std::string dir = temp_dir("server_shed");
  const StoreFixture store(dir, "a.omps", 5);
  serve::ServerOptions options = test_options(dir);
  options.max_pending = 4;  // tiny bounded queue
  options.cache_capacity = 0;
  TestServer ts({store.path}, options);
  serve::Client client =
      serve::Client::connect_unix(util::path_join(dir, "s.sock"));

  // One pipelined burst far over the bound. Every request gets exactly one
  // reply, in order; the overflow is typed Overloaded, not a stall.
  const std::size_t burst = 64;
  const std::vector<serve::Request> requests(
      burst, recommend_request(store.app, store.arch));
  const std::vector<serve::Response> replies = client.call(requests);
  ASSERT_EQ(replies.size(), burst);
  std::size_t answered = 0, shed = 0;
  for (const serve::Response& reply : replies) {
    if (reply.type == serve::MsgType::RecommendReply) ++answered;
    if (reply.type == serve::MsgType::Overloaded) ++shed;
  }
  EXPECT_EQ(answered + shed, burst);
  EXPECT_GE(answered, options.max_pending)
      << "admitted requests must still be answered";
  EXPECT_GT(shed, 0u) << "the burst must overflow a queue of 4";
  ts.stop_and_join();
  EXPECT_EQ(ts.server.counters().shed, shed);
}

TEST(Server, MalformedRequestGetsErrorReplyAndConnectionSurvives) {
  const std::string dir = temp_dir("server_badreq");
  const StoreFixture store(dir, "a.omps", 5);
  TestServer ts({store.path}, test_options(dir));

  // Raw socket: a well-framed but undecodable payload (unknown type 0xEE).
  const std::string socket_path = util::path_join(dir, "s.sock");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const char bad_frame[5] = {1, 0, 0, 0, '\xee'};
  ASSERT_TRUE(util::write_all(fd, std::string_view(bad_frame, 5)));
  // Read one complete reply frame.
  std::string buffer;
  while (serve::frame_size(buffer) == 0) {
    char chunk[512];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0);
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  const serve::Response reply =
      serve::decode_response(std::string_view(buffer).substr(4));
  EXPECT_EQ(reply.type, serve::MsgType::Error);
  EXPECT_FALSE(reply.message.empty());
  ::close(fd);

  // The server survives and keeps answering well-formed clients.
  serve::Client client = serve::Client::connect_unix(socket_path);
  EXPECT_EQ(client.call_one(recommend_request(store.app, store.arch)).type,
            serve::MsgType::RecommendReply);
  ts.stop_and_join();
  EXPECT_EQ(ts.server.counters().wire_errors, 1u);
}

TEST(Server, OversizedFrameDropsTheConnection) {
  const std::string dir = temp_dir("server_oversize");
  const StoreFixture store(dir, "a.omps", 5);
  TestServer ts({store.path}, test_options(dir));
  const std::string socket_path = util::path_join(dir, "s.sock");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::uint32_t huge = serve::kMaxFrameBytes + 1;
  char prefix[4];
  std::memcpy(prefix, &huge, 4);
  ASSERT_TRUE(util::write_all(fd, std::string_view(prefix, 4)));
  // The server must close on the framing violation: recv sees EOF.
  char chunk[16];
  EXPECT_EQ(::recv(fd, chunk, sizeof(chunk), 0), 0);
  ::close(fd);
  ts.stop_and_join();
  EXPECT_EQ(ts.server.counters().protocol_errors, 1u);
}

TEST(Server, HotSwapMidLoadDropsNothing) {
  const std::string dir = temp_dir("server_swap");
  const StoreFixture a(dir, "a.omps", 5);
  const StoreFixture b(dir, "b.omps", 9);
  TestServer ts({a.path}, test_options(dir));
  const std::string socket_path = util::path_join(dir, "s.sock");

  // A client hammers pipelined batches while the main thread swaps the
  // store under it. The guarantee: every single request is answered with a
  // real reply — no Error, no Overloaded (bound not reached), no drop.
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<bool> stop{false};
  std::set<std::uint64_t> generations_seen;
  std::mutex generations_mutex;
  std::thread load([&] {
    serve::Client client = serve::Client::connect_unix(socket_path);
    const std::vector<serve::Request> batch(8, recommend_request(a.app, a.arch));
    while (!stop.load()) {
      sent += batch.size();
      const std::vector<serve::Response> replies = client.call(batch);
      for (const serve::Response& reply : replies) {
        ASSERT_EQ(reply.type, serve::MsgType::RecommendReply);
        ASSERT_TRUE(reply.found);
        ++answered;
        std::lock_guard<std::mutex> lock(generations_mutex);
        generations_seen.insert(reply.generation);
      }
    }
  });

  // Let the load establish itself, then swap back and forth.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(ts.server.swap({b.path}), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(ts.server.swap({a.path, b.path}), 3u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  load.join();
  ts.stop_and_join();

  EXPECT_EQ(answered.load(), sent.load())
      << "a hot-swap must not drop in-flight queries";
  EXPECT_GE(generations_seen.size(), 2u)
      << "the load must have observed the swap happening under it";
  const serve::ServerCounters counters = ts.server.counters();
  EXPECT_EQ(counters.swaps, 2u);
  EXPECT_EQ(counters.generation, 3u);
  EXPECT_EQ(counters.served, answered.load());
  EXPECT_EQ(counters.shed, 0u);
}

TEST(Server, WireSwapFailureKeepsOldGeneration) {
  const std::string dir = temp_dir("server_swapfail");
  const StoreFixture store(dir, "a.omps", 5);
  TestServer ts({store.path}, test_options(dir));
  serve::Client client =
      serve::Client::connect_unix(util::path_join(dir, "s.sock"));

  serve::Request swap;
  swap.type = serve::MsgType::Swap;
  swap.store_paths = {util::path_join(dir, "missing.omps")};
  const serve::Response reply = client.call_one(swap);
  EXPECT_EQ(reply.type, serve::MsgType::SwapReply);
  EXPECT_FALSE(reply.found);
  EXPECT_NE(reply.message.find("missing.omps"), std::string::npos);
  EXPECT_EQ(reply.generation, 1u) << "the old generation keeps serving";

  // Still serving generation 1 answers.
  const serve::Response after =
      client.call_one(recommend_request(store.app, store.arch));
  EXPECT_EQ(after.type, serve::MsgType::RecommendReply);
  EXPECT_EQ(after.generation, 1u);
  ts.stop_and_join();
  const serve::ServerCounters counters = ts.server.counters();
  EXPECT_EQ(counters.swaps, 0u);
  EXPECT_EQ(counters.swap_failures, 1u);
}

TEST(Server, WireShutdownDrainsCleanly) {
  const std::string dir = temp_dir("server_shutdown");
  const StoreFixture store(dir, "a.omps", 5);
  TestServer ts({store.path}, test_options(dir));
  serve::Client client =
      serve::Client::connect_unix(util::path_join(dir, "s.sock"));
  // Queries pipelined ahead of the shutdown must still be answered.
  serve::Request shutdown;
  shutdown.type = serve::MsgType::Shutdown;
  const std::vector<serve::Response> replies = client.call(
      {recommend_request(store.app, store.arch), shutdown});
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].type, serve::MsgType::RecommendReply);
  EXPECT_EQ(replies[1].type, serve::MsgType::ShutdownReply);
  if (ts.thread.joinable()) ts.thread.join();  // run() exits on its own
  EXPECT_TRUE(ts.server.counters().drained_cleanly);
}

TEST(Server, AdminMessagesCanBeDisabled) {
  const std::string dir = temp_dir("server_noadmin");
  const StoreFixture store(dir, "a.omps", 5);
  serve::ServerOptions options = test_options(dir);
  options.allow_admin = false;
  TestServer ts({store.path}, options);
  serve::Client client =
      serve::Client::connect_unix(util::path_join(dir, "s.sock"));
  serve::Request shutdown;
  shutdown.type = serve::MsgType::Shutdown;
  EXPECT_EQ(client.call_one(shutdown).type, serve::MsgType::Error);
  // Queries still work; the server did not drain.
  EXPECT_EQ(client.call_one(recommend_request(store.app, store.arch)).type,
            serve::MsgType::RecommendReply);
  ts.stop_and_join();
}

TEST(Server, TcpListenerServesTheSameProtocol) {
  const std::string dir = temp_dir("server_tcp");
  const StoreFixture store(dir, "a.omps", 5);
  serve::ServerOptions options = test_options(dir);
  options.tcp_port = 0;  // ephemeral
  TestServer ts({store.path}, options);
  ASSERT_GT(ts.server.tcp_port(), 0);
  serve::Client client = serve::Client::connect_tcp(ts.server.tcp_port());
  const serve::Response reply =
      client.call_one(recommend_request(store.app, store.arch));
  EXPECT_EQ(reply.type, serve::MsgType::RecommendReply);
  EXPECT_TRUE(reply.found);
  ts.stop_and_join();
}

}  // namespace
}  // namespace omptune

#pragma once

// Process-isolated study supervisor (DESIGN.md §9).
//
// The single-process harness executes every sample in its own address
// space, so one crashing or wedged sample kills the whole journaled study.
// StudySupervisor contains faults at the process boundary instead: it
// forks a pool of workers, leases each one a shard of the plan's settings,
// and watches three liveness signals —
//
//   - crashes:   waitpid status (exit code / termination signal),
//   - hangs:     progress heartbeats missed past heartbeat_timeout_ms,
//   - stalls:    lease deadlines expired without the shard completing —
//
// reclaiming and reassigning the shard on any of them. A setting whose
// collection has crashed max_setting_crashes workers is declared poisonous
// and quarantined with its evidence (signal number, timeout) recorded on
// every placeholder sample, so the study still completes and the report
// says why the data is missing. Completed settings travel through
// per-worker crash-safe journals that the supervisor adopts into the main
// journal (a same-filesystem rename) the moment `done` arrives — the study
// is therefore resumable across supervisor death exactly like the
// single-process journaled run, and the assembled dataset is byte-identical
// to an undisturbed one: process death can duplicate work, never samples.
//
// SIGINT/SIGTERM drain gracefully: leases stop, workers finish their
// in-flight setting and exit, journals are already flushed (write-ahead),
// and the report carries a resume hint.
//
// The processes themselves (fork, poll, liveness kills, reaping, drain) are
// run by sweep::LeasePool, shared with the coordinator; this class is the
// policy over it.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/fault_runner.hpp"
#include "sweep/harness.hpp"
#include "sweep/lease.hpp"
#include "sweep/worker.hpp"

namespace omptune::sweep {

struct SupervisorOptions {
  /// Worker processes; clamped to the number of settings.
  int workers = 2;
  /// Journal directory; empty uses a private temp directory (removed after
  /// a completed run — resumability then only spans worker deaths, not
  /// supervisor deaths).
  std::string journal_dir;
  /// Skip settings already completed in the journal.
  bool resume = false;
  int repetitions = 4;
  std::uint64_t seed = 0x0417D5EEDull;
  /// Guard worker measurements with the retry/quarantine policy.
  bool resilient = true;
  ResilienceOptions resilience;
  /// A worker that produced no progress signal for this long is presumed
  /// wedged and killed. Must exceed the slowest single sample plus worker
  /// startup. 0 disables the check.
  std::int64_t heartbeat_timeout_ms = 10000;
  /// How often workers emit progress heartbeats (throttle, not a timer:
  /// heartbeats ride on sample completion).
  std::int64_t heartbeat_interval_ms = 25;
  /// Wall-clock budget for one leased shard, renewed on every completed
  /// setting. 0 disables lease expiry.
  std::int64_t lease_ms = 300000;
  /// Settings per lease. Larger shards amortize supervisor round-trips;
  /// smaller shards rebalance faster after a reclaim.
  std::size_t shard_size = 2;
  /// Crashes a single setting may cause before it is quarantined as
  /// poisonous. Raise for chaos/identity runs where kills are environmental
  /// and no setting is actually at fault.
  int max_setting_crashes = 3;
  /// Process-level fault injection executed inside the workers.
  sim::ChaosSpec chaos;
  /// Respawn pacing after a worker death: each slot's consecutive-death
  /// streak gates its replacement behind exponential backoff with
  /// decorrelated jitter (deterministic per seed/slot/streak), so a
  /// persistently crashing environment cannot hot-loop fork(). The streak
  /// resets on a successful `ready` handshake. Shared with the coordinator.
  BackoffPolicy respawn_backoff;
  std::function<void(const std::string&)> progress;
};

/// Evidence trail of a setting quarantined by the supervisor.
struct SupervisedQuarantine {
  std::string key;
  int crashes = 0;
  std::string evidence;  ///< last exit status / timeout description
};

struct SupervisorReport {
  std::size_t settings_total = 0;
  std::size_t settings_completed = 0;  ///< includes resumed + quarantined
  std::size_t settings_resumed = 0;
  std::size_t worker_crashes = 0;    ///< unexpected worker deaths
  std::size_t hang_kills = 0;        ///< heartbeat-timeout reclaims
  std::size_t lease_expiries = 0;    ///< lease-deadline reclaims
  std::size_t protocol_errors = 0;   ///< garbled result streams
  std::size_t respawns = 0;          ///< workers spawned beyond the pool
  std::size_t respawn_waits = 0;     ///< respawns gated behind backoff
  std::int64_t respawn_backoff_ms = 0;  ///< total scheduled backoff delay
  std::size_t reassigned_settings = 0;
  std::vector<SupervisedQuarantine> quarantined_settings;
  bool interrupted = false;          ///< stopped by signal / request_stop
  std::string journal_dir;           ///< where completed work lives
};

/// Runs a StudyPlan across a pool of forked worker processes. Single-shot:
/// construct, run(), read report().
class StudySupervisor {
 public:
  /// `make_runner` is invoked inside each worker child after fork.
  StudySupervisor(RunnerFactory make_runner, SupervisorOptions options);

  /// Collect the plan. Returns the assembled dataset (partial when
  /// interrupted — see report().interrupted). Throws std::runtime_error if
  /// workers cannot be spawned or fail repeatedly before becoming ready.
  Dataset run(const StudyPlan& plan);

  const SupervisorReport& report() const { return report_; }
  const SupervisorOptions& options() const { return options_; }

  /// Ask a running run() to stop as a SIGINT would (drain in-flight
  /// settings, keep the journal, report interrupted). Safe to call from
  /// another thread; latency is one poll interval.
  void request_stop() { stop_requested_.store(true); }

 private:
  RunnerFactory make_runner_;
  SupervisorOptions options_;
  SupervisorReport report_;
  std::atomic<bool> stop_requested_{false};
};

}  // namespace omptune::sweep

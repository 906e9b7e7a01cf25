#pragma once

// Worker side of the process-isolated study supervisor.
//
// A worker is a forked child of the supervisor that executes leased
// settings in its own address space: a sample that segfaults, wedges, or
// corrupts memory takes down one worker, never the study. The two sides
// speak a line-oriented pipe protocol:
//
//   supervisor -> worker      worker -> supervisor
//   ------------------        -----------------------
//   lease N i:a i:a ...       ready
//   exit                      hb <total-samples>
//                             start <task-index>
//                             done <task-index> <samples>
//                             bye
//
// Each lease item is "<task index>:<attempt>", attempt being the number of
// workers this setting has already crashed — the chaos monkey keys its
// deterministic draws on it, so a reassigned setting does not replay the
// exact fault that killed its previous owner. The worker journals every
// completed setting into its private journal directory BEFORE reporting
// `done`; results therefore travel through the crash-safe journal (atomic
// rename, directory fsync), and the pipe carries only control traffic.
// Heartbeats are progress signals emitted from the harness's sample
// observer, not from a timer thread: a wedged measurement stops the
// heartbeat stream, which is exactly what lets the supervisor tell a hung
// worker from a slow one.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/executor.hpp"
#include "sim/fault_runner.hpp"
#include "sweep/harness.hpp"
#include "sweep/resilience.hpp"

namespace omptune::sweep {

/// One unit of leasable work: a (architecture, setting) pair of the plan.
struct SettingTask {
  arch::ArchId arch;
  StudySetting setting;
  std::size_t config_count = 0;
  std::string key;  ///< setting_key(arch, setting) — journal + merge identity
};

/// The plan flattened to the supervisor's work-queue order (identical to
/// the single-process run_study iteration order, which is what makes the
/// assembled dataset byte-identical).
std::vector<SettingTask> flatten_plan(const StudyPlan& plan);

/// Creates the runner a worker measures with. Invoked in the CHILD after
/// fork, so stateful runners are never shared across processes.
using RunnerFactory = std::function<std::unique_ptr<sim::Runner>()>;

/// Everything a forked worker needs; plain data so fork inheritance is the
/// only transport required.
struct WorkerConfig {
  int command_fd = -1;  ///< read end: supervisor commands
  int result_fd = -1;   ///< write end: ready/hb/start/done/bye
  std::string journal_dir;  ///< this worker's private journal directory
  int repetitions = 4;
  std::uint64_t seed = 0;
  bool resilient = true;
  ResilienceOptions resilience;
  sim::ChaosSpec chaos;
  std::int64_t heartbeat_interval_ms = 25;
};

/// Worker entry point: serves the protocol through LeaseChild
/// (sweep/lease_pool), collecting and journaling one setting per leased
/// item. Never returns.
[[noreturn]] void worker_main(const WorkerConfig& config,
                              const std::vector<SettingTask>& tasks,
                              const RunnerFactory& make_runner);

// ---- wire protocol ----------------------------------------------------------
// Exposed (rather than buried in worker.cpp) so the supervisor and the
// tests parse/format messages with the same code, and so garbled-input
// handling is unit-testable without forking anything.

namespace protocol {

struct LeaseItem {
  std::size_t task_index = 0;
  int attempt = 0;  ///< prior crash count of this setting
};

struct Command {
  enum class Kind { Lease, Exit };
  Kind kind = Kind::Exit;
  std::vector<LeaseItem> items;  ///< Lease only
};

struct WorkerMessage {
  enum class Kind { Ready, Heartbeat, Start, Done, Bye };
  Kind kind = Kind::Ready;
  std::size_t task_index = 0;  ///< Start/Done
  std::uint64_t count = 0;     ///< Heartbeat: total samples; Done: samples
};

std::string format_lease(const std::vector<LeaseItem>& items);
std::string format_exit();
std::string format_ready();
std::string format_heartbeat(std::uint64_t total_samples);
std::string format_start(std::size_t task_index);
std::string format_done(std::size_t task_index, std::uint64_t samples);
std::string format_bye();

/// nullopt on anything that is not a well-formed message — the caller
/// treats that as a protocol violation, never as something to guess about.
std::optional<Command> parse_command(const std::string& line,
                                     std::size_t task_count);
std::optional<WorkerMessage> parse_worker_message(const std::string& line,
                                                  std::size_t task_count);

}  // namespace protocol

}  // namespace omptune::sweep

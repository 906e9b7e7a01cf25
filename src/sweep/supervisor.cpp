#include "sweep/supervisor.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>

#include "arch/cpu_arch.hpp"
#include "sweep/journal.hpp"
#include "sweep/lease_pool.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"

namespace omptune::sweep {

namespace {

enum class TaskState { Queued, Done };

/// Per-slot respawn pacing: consecutive deaths grow the backoff window,
/// a completed `ready` handshake resets it.
struct RespawnGate {
  std::int64_t prev_delay = 0;  ///< decorrelated-jitter state
  int streak = 0;               ///< consecutive deaths without a handshake
};

}  // namespace

StudySupervisor::StudySupervisor(RunnerFactory make_runner,
                                 SupervisorOptions options)
    : make_runner_(std::move(make_runner)), options_(std::move(options)) {
  if (!make_runner_) {
    throw std::invalid_argument("StudySupervisor: runner factory required");
  }
  if (options_.workers < 1) {
    throw std::invalid_argument("StudySupervisor: workers must be >= 1");
  }
  if (options_.shard_size == 0) options_.shard_size = 1;
}

Dataset StudySupervisor::run(const StudyPlan& plan) {
  report_ = SupervisorReport{};
  stop_requested_.store(false);

  const std::vector<SettingTask> tasks = flatten_plan(plan);
  report_.settings_total = tasks.size();
  if (tasks.empty()) return Dataset{};

  std::string journal_dir = options_.journal_dir;
  const bool private_dir = journal_dir.empty();
  if (private_dir) journal_dir = util::create_temp_directory("supervisor");
  report_.journal_dir = journal_dir;
  StudyJournal journal(journal_dir);
  const std::string workers_root = util::path_join(journal_dir, "workers");
  util::create_directories(workers_root);

  const auto say = [&](const std::string& message) {
    if (options_.progress) options_.progress(message);
  };

  // -- startup: reconcile leftovers of a previous (possibly killed) run -------
  // A worker SIGKILLed between journal.record and its `done` report leaves a
  // completed entry in its private directory; on resume that work is adopted,
  // otherwise every stale entry is cleared so it can never pollute this run.
  for (const std::string& sub : util::list_dirs(workers_root)) {
    const StudyJournal leftover(util::path_join(workers_root, sub));
    for (const SettingTask& task : tasks) {
      if (!leftover.contains(task.key)) continue;
      if (options_.resume) {
        journal.adopt(leftover, task.key);
      } else {
        leftover.discard(task.key);
      }
    }
  }

  std::vector<TaskState> state(tasks.size(), TaskState::Queued);
  std::vector<int> crashes(tasks.size(), 0);
  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const SettingTask& task = tasks[i];
    if (options_.resume && journal.contains(task.key)) {
      try {
        journal.load(task.key, task.config_count);  // validate before trusting
        state[i] = TaskState::Done;
        ++report_.settings_resumed;
        ++report_.settings_completed;
        say(task.key + " resumed from journal");
        continue;
      } catch (const util::DataCorruptionError& error) {
        journal.discard(task.key);
        say(task.key + " journal entry invalid, recollecting (" + error.what() +
            ")");
      }
    } else if (!options_.resume) {
      journal.discard(task.key);  // a stale entry must not merge into this run
    }
    queue.push_back(i);
  }

  const auto mark_done = [&](std::size_t idx) {
    state[idx] = TaskState::Done;
    ++report_.settings_completed;
  };

  const auto quarantine_task = [&](std::size_t idx,
                                   const std::string& evidence) {
    const SettingTask& task = tasks[idx];
    const std::string full = "crashed " + std::to_string(crashes[idx]) +
                             " worker processes; last evidence: " + evidence;
    const Dataset placeholder = quarantined_setting_dataset(
        arch::architecture(task.arch), task.setting, task.config_count,
        options_.repetitions, options_.seed, full);
    journal.record(task.key, placeholder);
    mark_done(idx);
    report_.quarantined_settings.push_back(
        SupervisedQuarantine{task.key, crashes[idx], evidence});
    say(task.key + " quarantined: " + full);
  };

  // -- worker pool ------------------------------------------------------------
  if (!queue.empty()) {
    LeasePoolOptions pool_options;
    pool_options.owner = "StudySupervisor";
    pool_options.children = "workers";
    pool_options.size = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(options_.workers), queue.size()));
    pool_options.item_count = tasks.size();
    pool_options.heartbeat_timeout_ms = options_.heartbeat_timeout_ms;
    pool_options.lease_ms = options_.lease_ms;
    LeasePool pool(pool_options);
    const auto slots = static_cast<std::size_t>(pool_options.size);
    std::vector<std::unique_ptr<StudyJournal>> worker_journals(slots);
    std::vector<RespawnGate> gates(slots);

    LeasePoolHooks hooks;
    const auto worker_dir = [&](int slot) {
      return util::path_join(workers_root, "w" + std::to_string(slot));
    };
    hooks.before_spawn = [&](int slot) {
      // Construct the parent-side journal (creates the directory, clears
      // stale temp files) BEFORE forking, so cleanup can never race the
      // child's first write.
      worker_journals[static_cast<std::size_t>(slot)] =
          std::make_unique<StudyJournal>(worker_dir(slot));
    };
    hooks.child_main = [&](int slot, int command_fd, int result_fd) {
      WorkerConfig config;
      config.command_fd = command_fd;
      config.result_fd = result_fd;
      config.journal_dir = worker_dir(slot);
      config.repetitions = options_.repetitions;
      config.seed = options_.seed;
      config.resilient = options_.resilient;
      config.resilience = options_.resilience;
      config.chaos = options_.chaos;
      config.heartbeat_interval_ms = options_.heartbeat_interval_ms;
      worker_main(config, tasks, make_runner_);  // [[noreturn]]
    };

    hooks.grant = [&](const LeaseSlot& w) {
      std::vector<protocol::LeaseItem> items;
      while (!queue.empty() && items.size() < options_.shard_size) {
        const std::size_t idx = queue.front();
        queue.pop_front();
        if (state[idx] == TaskState::Done) continue;
        items.push_back(protocol::LeaseItem{idx, crashes[idx]});
      }
      if (items.empty() || pool.lease(w.slot, items)) return;
      // The worker died under us; give the shard back, the reaper will
      // sort out the corpse.
      for (auto it = items.rbegin(); it != items.rend(); ++it) {
        queue.push_front(it->task_index);
      }
    };

    hooks.on_ready = [&](const LeaseSlot& w) {
      gates[static_cast<std::size_t>(w.slot)] = RespawnGate{};
    };

    hooks.on_done = [&](const LeaseSlot& w, std::size_t idx,
                        std::uint64_t samples) {
      journal.adopt(*worker_journals[static_cast<std::size_t>(w.slot)],
                    tasks[idx].key);
      if (state[idx] != TaskState::Done) mark_done(idx);
      say(tasks[idx].key + " -> " + std::to_string(samples) + " samples (w" +
          std::to_string(w.slot) + ")");
    };

    hooks.on_exit = [&](const LeaseSlot& w, const ChildExit& exit) {
      // The worker's journal may hold a completed entry whose `done` never
      // made it out (killed between record and report): adopt it.
      const StudyJournal& worker_journal =
          *worker_journals[static_cast<std::size_t>(w.slot)];
      std::vector<std::size_t> unfinished;
      for (const std::size_t idx : w.leased) {
        if (state[idx] == TaskState::Done) continue;
        if (worker_journal.contains(tasks[idx].key)) {
          journal.adopt(worker_journal, tasks[idx].key);
          mark_done(idx);
          say(tasks[idx].key + " salvaged from dead worker w" +
              std::to_string(w.slot));
          continue;
        }
        unfinished.push_back(idx);
      }

      // Blame only the in-flight setting; the untouched rest of the lease
      // goes back to the queue without a strike.
      std::optional<std::size_t> blamed;
      if (!exit.clean && w.inflight && state[*w.inflight] != TaskState::Done) {
        blamed = *w.inflight;
        unfinished.erase(
            std::remove(unfinished.begin(), unfinished.end(), *blamed),
            unfinished.end());
      }
      for (auto it = unfinished.rbegin(); it != unfinished.rend(); ++it) {
        queue.push_front(*it);
        ++report_.reassigned_settings;
      }
      if (blamed) {
        ++crashes[*blamed];
        if (crashes[*blamed] >= options_.max_setting_crashes) {
          quarantine_task(*blamed, exit.evidence);
        } else {
          queue.push_front(*blamed);
          ++report_.reassigned_settings;
          say(tasks[*blamed].key + " reassigned (attempt " +
              std::to_string(crashes[*blamed]) + "): " + exit.evidence);
        }
      }
    };

    hooks.respawn_delay_ms = [&](int slot) {
      // Do NOT respawn immediately: a persistently crashing environment
      // would hot-loop fork(). Gate the replacement behind the slot's
      // backoff instead.
      RespawnGate& gate = gates[static_cast<std::size_t>(slot)];
      ++gate.streak;
      const std::int64_t delay = options_.respawn_backoff.next_delay_ms(
          options_.seed, "w" + std::to_string(slot), gate.streak,
          gate.prev_delay);
      gate.prev_delay = delay;
      ++report_.respawn_waits;
      report_.respawn_backoff_ms += delay;
      return delay;
    };

    hooks.finished = [&] {
      return report_.settings_completed == report_.settings_total;
    };
    hooks.has_work = [&] { return !queue.empty(); };
    hooks.on_interrupt = [&] {
      say("study interrupted: draining workers (completed " +
          std::to_string(report_.settings_completed) + "/" +
          std::to_string(report_.settings_total) + ")");
    };

    const LeasePoolStats stats = pool.run(hooks, stop_requested_);
    report_.worker_crashes = stats.crashes;
    report_.hang_kills = stats.hang_kills;
    report_.lease_expiries = stats.lease_expiries;
    report_.protocol_errors = stats.protocol_errors;
    report_.respawns = stats.respawns;
    report_.interrupted = stats.interrupted;
  }

  // -- assembly ---------------------------------------------------------------
  // Tasks are loaded in flatten_plan order — the single-process run_study
  // iteration order — which is what makes the assembled dataset (and any
  // compacted store built from the journal) byte-identical to an
  // undisturbed run.
  Dataset dataset;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (state[i] != TaskState::Done) continue;
    dataset.append(journal.load(tasks[i].key, tasks[i].config_count));
  }

  if (report_.interrupted) {
    say("resume with --journal=" + journal_dir + " --resume");
  } else {
    // Worker directories are empty after adoption; clear the scaffolding so
    // a completed journal holds exactly one entry per setting.
    util::remove_tree(workers_root);
    if (private_dir) {
      util::remove_tree(journal_dir);
      report_.journal_dir.clear();
    }
  }
  return dataset;
}

}  // namespace omptune::sweep

#include "sweep/worker.hpp"

#include <signal.h>
#include <unistd.h>

#include <memory>

#include "arch/cpu_arch.hpp"
#include "sweep/config_space.hpp"
#include "sweep/journal.hpp"
#include "sweep/lease_pool.hpp"
#include "util/process.hpp"

namespace omptune::sweep {

// ---- protocol ---------------------------------------------------------------

namespace protocol {

namespace {

/// Parse a non-negative integer token; nullopt on anything else (garbled
/// bytes must fail parsing, not wrap around or stop early).
std::optional<std::uint64_t> parse_u64(const std::string& token) {
  if (token.empty() ||
      token.find_first_not_of("0123456789") != std::string::npos ||
      token.size() > 19) {
    return std::nullopt;
  }
  return std::stoull(token);
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) out.emplace_back(line, start, i - start);
  }
  return out;
}

}  // namespace

std::string format_lease(const std::vector<LeaseItem>& items) {
  std::string out = "lease " + std::to_string(items.size());
  for (const LeaseItem& item : items) {
    out += " " + std::to_string(item.task_index) + ":" +
           std::to_string(item.attempt);
  }
  out += "\n";
  return out;
}

std::string format_exit() { return "exit\n"; }
std::string format_ready() { return "ready\n"; }

std::string format_heartbeat(std::uint64_t total_samples) {
  return "hb " + std::to_string(total_samples) + "\n";
}

std::string format_start(std::size_t task_index) {
  return "start " + std::to_string(task_index) + "\n";
}

std::string format_done(std::size_t task_index, std::uint64_t samples) {
  return "done " + std::to_string(task_index) + " " +
         std::to_string(samples) + "\n";
}

std::string format_bye() { return "bye\n"; }

std::optional<Command> parse_command(const std::string& line,
                                     std::size_t task_count) {
  const std::vector<std::string> tokens = split_ws(line);
  if (tokens.empty()) return std::nullopt;
  if (tokens[0] == "exit") {
    if (tokens.size() != 1) return std::nullopt;
    return Command{Command::Kind::Exit, {}};
  }
  if (tokens[0] != "lease" || tokens.size() < 2) return std::nullopt;
  const std::optional<std::uint64_t> count = parse_u64(tokens[1]);
  if (!count || *count == 0 || tokens.size() != 2 + *count) return std::nullopt;
  Command command{Command::Kind::Lease, {}};
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::size_t colon = tokens[i].find(':');
    if (colon == std::string::npos) return std::nullopt;
    const std::optional<std::uint64_t> index =
        parse_u64(tokens[i].substr(0, colon));
    const std::optional<std::uint64_t> attempt =
        parse_u64(tokens[i].substr(colon + 1));
    if (!index || !attempt || *index >= task_count) return std::nullopt;
    command.items.push_back(
        LeaseItem{static_cast<std::size_t>(*index), static_cast<int>(*attempt)});
  }
  return command;
}

std::optional<WorkerMessage> parse_worker_message(const std::string& line,
                                                  std::size_t task_count) {
  const std::vector<std::string> tokens = split_ws(line);
  if (tokens.empty()) return std::nullopt;
  WorkerMessage msg;
  if (tokens[0] == "ready" && tokens.size() == 1) {
    msg.kind = WorkerMessage::Kind::Ready;
    return msg;
  }
  if (tokens[0] == "bye" && tokens.size() == 1) {
    msg.kind = WorkerMessage::Kind::Bye;
    return msg;
  }
  if (tokens[0] == "hb" && tokens.size() == 2) {
    const std::optional<std::uint64_t> count = parse_u64(tokens[1]);
    if (!count) return std::nullopt;
    msg.kind = WorkerMessage::Kind::Heartbeat;
    msg.count = *count;
    return msg;
  }
  if (tokens[0] == "start" && tokens.size() == 2) {
    const std::optional<std::uint64_t> index = parse_u64(tokens[1]);
    if (!index || *index >= task_count) return std::nullopt;
    msg.kind = WorkerMessage::Kind::Start;
    msg.task_index = static_cast<std::size_t>(*index);
    return msg;
  }
  if (tokens[0] == "done" && tokens.size() == 3) {
    const std::optional<std::uint64_t> index = parse_u64(tokens[1]);
    const std::optional<std::uint64_t> samples = parse_u64(tokens[2]);
    if (!index || !samples || *index >= task_count) return std::nullopt;
    msg.kind = WorkerMessage::Kind::Done;
    msg.task_index = static_cast<std::size_t>(*index);
    msg.count = *samples;
    return msg;
  }
  return std::nullopt;
}

}  // namespace protocol

// ---- plan flattening --------------------------------------------------------

std::vector<SettingTask> flatten_plan(const StudyPlan& plan) {
  std::vector<SettingTask> tasks;
  for (const ArchPlan& arch_plan : plan.arch_plans) {
    const arch::CpuArch& cpu = arch::architecture(arch_plan.arch);
    const ConfigSpace space = ConfigSpace::paper_space(cpu);
    for (std::size_t i = 0; i < arch_plan.settings.size(); ++i) {
      SettingTask task;
      task.arch = arch_plan.arch;
      task.setting = arch_plan.settings[i];
      task.config_count = arch_plan.configs_per_setting[i];
      task.rows = space.sample_size(task.config_count);
      task.key = setting_key(cpu.name, task.setting);
      tasks.push_back(std::move(task));
    }
  }
  return tasks;
}

// ---- worker main ------------------------------------------------------------

namespace {

[[noreturn]] void apply_chaos(sim::ChaosAction action, int result_fd) {
  switch (action) {
    case sim::ChaosAction::Kill:
      ::raise(SIGKILL);
      break;
    case sim::ChaosAction::Segv:
      ::raise(SIGSEGV);
      break;
    case sim::ChaosAction::Wedge:
      // Stop making progress but stay alive: heartbeats cease, the pipe
      // stays open — only the supervisor's liveness checks can reap us.
      for (;;) ::pause();
    case sim::ChaosAction::Garble: {
      util::write_all(result_fd, "\x01\x02 this is not the protocol \xff\n");
      // Keep "working": the supervisor must kill us on the garbage, we
      // must not conveniently exit on our own.
      for (;;) ::pause();
    }
    case sim::ChaosAction::None:
      break;
  }
  // raise(SIGKILL/SIGSEGV) does not return control here under normal
  // delivery; if a sanitizer or blocked signal interferes, die loudly.
  ::_exit(13);
}

}  // namespace

void worker_main(const WorkerConfig& config,
                 const std::vector<SettingTask>& tasks,
                 const RunnerFactory& make_runner) {
  LeaseChild child(config.command_fd, config.result_fd,
                   config.heartbeat_interval_ms);
  std::unique_ptr<StudyJournal> journal;
  std::unique_ptr<sim::Runner> runner;
  std::unique_ptr<SweepHarness> harness;
  std::unique_ptr<ResiliencePolicy> policy;
  const sim::ChaosMonkey monkey(config.chaos);

  // Observer state: which setting is in flight and how far along it is,
  // for deterministic chaos draws.
  std::string current_key;
  int current_attempt = 0;
  std::uint64_t samples_in_setting = 0;

  const auto prepare = [&] {
    journal = std::make_unique<StudyJournal>(config.journal_dir);
    runner = make_runner();
    harness = std::make_unique<SweepHarness>(*runner, config.repetitions,
                                             config.seed);
    if (config.resilient) {
      policy = std::make_unique<ResiliencePolicy>(config.resilience);
    }
    harness->set_sample_observer([&] {
      ++samples_in_setting;
      const sim::ChaosAction action =
          monkey.draw(current_key, current_attempt, samples_in_setting);
      if (action != sim::ChaosAction::None) {
        apply_chaos(action, config.result_fd);
      }
      child.sample_done();
    });
  };

  const auto collect = [&](const protocol::LeaseItem& item) -> std::uint64_t {
    const SettingTask& task = tasks[item.task_index];
    current_key = task.key;
    current_attempt = item.attempt;
    samples_in_setting = 0;
    const Dataset batch =
        harness->run_setting(arch::architecture(task.arch), task.setting,
                             task.config_count, policy.get());
    // Journal BEFORE reporting: `done` is a promise that the entry is
    // durably on disk in this worker's journal.
    journal->record(task.key, batch);
    return batch.size();
  };

  child.serve(tasks.size(), prepare, collect);
}

}  // namespace omptune::sweep

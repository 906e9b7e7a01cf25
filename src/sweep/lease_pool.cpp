#include "sweep/lease_pool.hpp"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace omptune::sweep {

namespace {

constexpr int kPollIntervalMs = 25;
/// Children dying repeatedly before their `ready` handshake indicate a
/// broken environment (fork bomb guard), not a poisonous item.
constexpr int kMaxSpawnFailures = 5;

}  // namespace

/// Parent-side handle on one forked child.
struct LeasePool::Child {
  LeaseSlot view;
  pid_t pid = -1;
  util::Pipe cmd;  ///< parent keeps write_fd
  util::Pipe res;  ///< parent keeps read_fd
  util::LineReader reader{-1};
  bool exit_sent = false;
  bool saw_bye = false;
  std::int64_t last_signal = 0;     ///< monotonic_ms of the last message
  std::int64_t lease_deadline = 0;  ///< 0 = no lease clock running
  std::int64_t eligible_at = 0;     ///< no respawn into this slot before
  std::string kill_reason;          ///< set when the engine killed on purpose

  bool alive() const { return pid >= 0; }
};

LeasePool::LeasePool(LeasePoolOptions options) : options_(std::move(options)) {}

LeasePool::~LeasePool() = default;

LeasePool::Child LeasePool::spawn(int slot) {
  Child child;
  child.view.slot = slot;
  if (hooks_->before_spawn) hooks_->before_spawn(slot);
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(options_.owner + ": fork(): " + std::strerror(errno));
  }
  if (pid == 0) {
    // Drop every parent-side fd inherited from the pool, so a sibling
    // holding a pipe end can never mask a peer's EOF.
    for (Child& other : children_) {
      other.cmd.close_read();
      other.cmd.close_write();
      other.res.close_read();
      other.res.close_write();
    }
    child.cmd.close_write();
    child.res.close_read();
    hooks_->child_main(slot, child.cmd.read_fd, child.res.write_fd);
    ::_exit(11);  // child_main never returns
  }
  child.pid = pid;
  child.cmd.close_read();
  child.res.close_write();
  util::set_nonblocking(child.res.read_fd);
  child.reader = util::LineReader(child.res.read_fd);
  child.last_signal = util::monotonic_ms();
  return child;
}

bool LeasePool::lease(int slot, const std::vector<protocol::LeaseItem>& items) {
  Child& child = children_.at(static_cast<std::size_t>(slot));
  if (!util::write_all(child.cmd.write_fd, protocol::format_lease(items))) {
    return false;
  }
  for (const protocol::LeaseItem& item : items) {
    child.view.leased.push_back(item.task_index);
  }
  const std::int64_t now = util::monotonic_ms();
  child.last_signal = now;
  child.lease_deadline = options_.lease_ms > 0 ? now + options_.lease_ms : 0;
  return true;
}

/// Drains and applies every pending message; false on a protocol violation.
bool LeasePool::apply_lines(Child& child) {
  for (const std::string& line : child.reader.drain()) {
    const std::optional<protocol::WorkerMessage> msg =
        protocol::parse_worker_message(line, options_.item_count);
    if (!msg) return false;
    child.last_signal = util::monotonic_ms();
    LeaseSlot& view = child.view;
    switch (msg->kind) {
      case protocol::WorkerMessage::Kind::Ready:
        view.ready = true;
        spawn_failures_ = 0;
        if (hooks_->on_ready) hooks_->on_ready(view);
        break;
      case protocol::WorkerMessage::Kind::Heartbeat:
        break;  // liveness is the timestamp update above
      case protocol::WorkerMessage::Kind::Start:
        view.inflight = msg->task_index;
        break;
      case protocol::WorkerMessage::Kind::Done: {
        const std::size_t item = msg->task_index;
        if (view.inflight == item) view.inflight.reset();
        const auto it = std::find(view.leased.begin(), view.leased.end(), item);
        if (it != view.leased.end()) view.leased.erase(it);
        child.lease_deadline =
            options_.lease_ms > 0 ? child.last_signal + options_.lease_ms : 0;
        hooks_->on_done(view, item, msg->count);
        break;
      }
      case protocol::WorkerMessage::Kind::Bye:
        child.saw_bye = true;
        break;
    }
  }
  return !child.reader.garbled();
}

void LeasePool::reap(Child& child, const util::ExitStatus& status) {
  child.pid = -1;  // reaped: kill_all must not wait for it again
  // Salvage first: the pipe may still hold `done` lines written before
  // death.
  apply_lines(child);
  ChildExit exit;
  exit.clean = child.saw_bye ||
               (child.exit_sent && status.exited && status.exit_code == 0);
  exit.evidence =
      !child.kill_reason.empty() ? child.kill_reason : status.describe();
  if (!exit.clean && child.kill_reason.empty()) ++stats_.crashes;
  if (!exit.clean && !child.view.ready &&
      ++spawn_failures_ > kMaxSpawnFailures) {
    throw std::runtime_error(
        options_.owner + ": " + std::to_string(spawn_failures_) +
        " consecutive " + options_.children +
        " died before becoming ready (last: " + exit.evidence + ")");
  }
  hooks_->on_exit(child.view, exit);
  child.view.leased.clear();
  child.view.inflight.reset();
  child.lease_deadline = 0;
}

void LeasePool::kill_child(Child& child, const std::string& reason) {
  if (!child.alive()) return;
  if (child.kill_reason.empty()) child.kill_reason = reason;
  ::kill(child.pid, SIGKILL);
}

void LeasePool::kill_all() {
  for (Child& child : children_) {
    if (!child.alive()) continue;
    ::kill(child.pid, SIGKILL);
    util::wait_for(child.pid);
    child.pid = -1;
  }
}

LeasePoolStats LeasePool::run(const LeasePoolHooks& hooks,
                              const std::atomic<bool>& stop) {
  hooks_ = &hooks;
  stats_ = LeasePoolStats{};
  spawn_failures_ = 0;
  children_.clear();
  util::ShutdownSignalGuard guard;
  const auto any_alive = [&] {
    return std::any_of(children_.begin(), children_.end(),
                       [](const Child& child) { return child.alive(); });
  };

  try {
    children_.reserve(static_cast<std::size_t>(options_.size));
    for (int slot = 0; slot < options_.size; ++slot) {
      children_.push_back(spawn(slot));
    }

    const std::int64_t grace_ms =
        options_.heartbeat_timeout_ms > 0
            ? std::max<std::int64_t>(options_.heartbeat_timeout_ms, 1000)
            : 10000;
    bool shutting_down = false;
    std::int64_t drain_deadline = 0;

    for (;;) {
      if (!shutting_down) {
        const bool finished = hooks.finished();
        if (finished || guard.triggered() || stop.load()) {
          shutting_down = true;
          stats_.interrupted = !finished;
          for (Child& child : children_) {
            if (!child.alive()) continue;
            child.exit_sent = true;
            util::write_all(child.cmd.write_fd, protocol::format_exit());
          }
          drain_deadline = util::monotonic_ms() + grace_ms;
          if (stats_.interrupted && hooks.on_interrupt) hooks.on_interrupt();
        }
      }
      if (shutting_down && !any_alive()) break;

      if (!shutting_down) {
        for (Child& child : children_) {
          if (child.alive() && child.view.ready && !child.exit_sent &&
              child.view.leased.empty()) {
            hooks.grant(child.view);
          }
        }
      }

      std::vector<struct pollfd> fds;
      fds.push_back({guard.wake_fd(), POLLIN, 0});
      for (const Child& child : children_) {
        if (child.alive() && !child.reader.eof()) {
          fds.push_back({child.reader.fd(), POLLIN, 0});
        }
      }
      ::poll(fds.data(), fds.size(), kPollIntervalMs);
      // Drain the wake pipe so a delivered signal does not turn the poll
      // loop into a busy spin (the triggered() flag is authoritative).
      char sink[64];
      while (::read(guard.wake_fd(), sink, sizeof(sink)) > 0) {
      }

      for (Child& child : children_) {
        if (!child.alive()) continue;
        if (!apply_lines(child)) {
          ++stats_.protocol_errors;
          kill_child(child, "garbled result stream (protocol violation)");
        }
      }

      for (Child& child : children_) {
        if (!child.alive()) continue;
        if (const std::optional<util::ExitStatus> status =
                util::try_wait(child.pid)) {
          reap(child, *status);
          if (!shutting_down) {
            const std::int64_t delay =
                hooks.respawn_delay_ms ? hooks.respawn_delay_ms(child.view.slot)
                                       : 0;
            child.eligible_at = util::monotonic_ms() + delay;
          }
        }
      }

      if (!shutting_down && hooks.has_work()) {
        const std::int64_t now = util::monotonic_ms();
        for (Child& child : children_) {
          if (child.alive() || now < child.eligible_at) continue;
          child = spawn(child.view.slot);
          ++stats_.respawns;
        }
      }

      const std::int64_t now = util::monotonic_ms();
      for (Child& child : children_) {
        if (!child.alive() || !child.kill_reason.empty()) continue;
        // Idle ready children are parked on a blocking command read; only
        // a child that owes progress is held to the heartbeat clock.
        const bool owes_progress = !child.view.ready ||
                                   !child.view.leased.empty() ||
                                   child.exit_sent;
        if (options_.heartbeat_timeout_ms > 0 && owes_progress &&
            now - child.last_signal > options_.heartbeat_timeout_ms) {
          ++stats_.hang_kills;
          kill_child(child, "no heartbeat for " +
                                std::to_string(now - child.last_signal) +
                                "ms (hung)");
        } else if (child.lease_deadline > 0 && !child.view.leased.empty() &&
                   now > child.lease_deadline) {
          ++stats_.lease_expiries;
          kill_child(child, "lease expired after " +
                                std::to_string(options_.lease_ms) + "ms");
        } else if (shutting_down && now > drain_deadline) {
          kill_child(child, "shutdown grace period expired");
        }
      }
    }
  } catch (...) {
    kill_all();
    throw;
  }
  return stats_;
}

// ---- child side -------------------------------------------------------------

LeaseChild::LeaseChild(int command_fd, int result_fd,
                       std::int64_t heartbeat_interval_ms)
    : command_fd_(command_fd),
      result_fd_(result_fd),
      heartbeat_interval_ms_(heartbeat_interval_ms),
      last_heartbeat_ms_(util::monotonic_ms()) {}

void LeaseChild::send(const std::string& line) const {
  if (!util::write_all(result_fd_, line)) {
    ::_exit(0);  // the parent is gone; nothing left to report to
  }
}

void LeaseChild::sample_done() {
  ++total_samples_;
  const std::int64_t now = util::monotonic_ms();
  if (now - last_heartbeat_ms_ >= heartbeat_interval_ms_) {
    last_heartbeat_ms_ = now;
    send(protocol::format_heartbeat(total_samples_));
  }
}

void LeaseChild::serve(std::size_t item_count,
                       const std::function<void()>& prepare,
                       const Collector& collect) {
  util::die_with_parent();
  // Shutdown is coordinated over the command pipe; a terminal SIGINT aimed
  // at the process group must not take children down mid-journal-write.
  ::signal(SIGINT, SIG_IGN);
  ::signal(SIGTERM, SIG_IGN);
  ::signal(SIGPIPE, SIG_IGN);

  try {
    if (prepare) prepare();
    util::BlockingLineReader commands(command_fd_);
    send(protocol::format_ready());
    for (;;) {
      const std::optional<std::string> line = commands.next();
      if (!line) ::_exit(0);  // command pipe EOF: the parent is gone
      const std::optional<protocol::Command> command =
          protocol::parse_command(*line, item_count);
      if (!command) ::_exit(12);  // a garbled parent is unrecoverable
      if (command->kind == protocol::Command::Kind::Exit) {
        util::write_all(result_fd_, protocol::format_bye());
        ::_exit(0);
      }
      for (const protocol::LeaseItem& item : command->items) {
        // Drain: between items, a pending `exit` abandons the rest of the
        // lease (the parent takes it back) so shutdown never waits for a
        // whole lease.
        if (const std::optional<std::string> pending = commands.poll_line()) {
          const std::optional<protocol::Command> interrupt =
              protocol::parse_command(*pending, item_count);
          if (interrupt && interrupt->kind == protocol::Command::Kind::Exit) {
            util::write_all(result_fd_, protocol::format_bye());
            ::_exit(0);
          }
          ::_exit(12);  // a second lease mid-lease is a parent bug
        }
        if (commands.eof()) ::_exit(0);
        send(protocol::format_start(item.task_index));
        const std::uint64_t samples = collect(item);
        send(protocol::format_done(item.task_index, samples));
      }
    }
  } catch (const std::exception&) {
    // Anything escaping the collection stack (runner construction, journal
    // I/O) is a casualty: die with a distinct code; the parent takes the
    // lease back and blames the in-flight item.
    ::_exit(11);
  }
  ::_exit(0);
}

}  // namespace omptune::sweep

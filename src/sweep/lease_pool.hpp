#pragma once

// The lease-pool engine under both fault-containing collection paths
// (DESIGN.md §9 and §11). StudySupervisor leases settings to forked
// workers and Coordinator leases shards to forked host agents; both speak
// the line protocol of sweep/worker.hpp, and everything about the children
// as processes lives here once.
//
// Parent side, LeasePool: fork with pipe hygiene (a child closes its
// siblings' pipe ends), one poll loop over the shutdown guard's wake fd and
// every result pipe, message parsing (a garbled stream is killed), the
// heartbeat-timeout and lease-deadline kills, reaping with salvage of the
// lines still in the pipe, the cap on children dying before `ready`, the
// `exit` broadcast with its drain grace period, and killing every child
// when an exception escapes.
//
// Child side, LeaseChild: `ready`, then each leased item between `start`
// and `done`, throttled `hb` progress signals, `exit` answered with `bye`,
// and exit code 11 when the collection stack throws.
//
// What an item is, which items to lease, what `done` and a death mean and
// how fast a dead slot is replaced stay with the caller, as LeasePoolHooks.

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sweep/worker.hpp"
#include "util/process.hpp"

namespace omptune::sweep {

/// The engine's view of one pool slot: the child it runs and its lease.
struct LeaseSlot {
  int slot = 0;
  bool ready = false;                   ///< `ready` handshake seen
  std::vector<std::size_t> leased;      ///< granted items, `done` not yet seen
  std::optional<std::size_t> inflight;  ///< `start` seen, `done` not yet
};

/// How a reaped child ended, as the engine judged it.
struct ChildExit {
  bool clean = false;    ///< `bye`, or exit 0 after `exit` was sent
  std::string evidence;  ///< why the engine killed it, else the exit status
};

struct LeasePoolOptions {
  /// Names the caller and its children in errors, e.g. "StudySupervisor"
  /// and "workers".
  std::string owner;
  std::string children;
  int size = 1;                ///< pool slots
  std::size_t item_count = 0;  ///< valid item indices are [0, item_count)
  /// A child that owes progress and is silent this long is killed as hung.
  /// 0 disables the check.
  std::int64_t heartbeat_timeout_ms = 10000;
  /// Wall-clock budget of one lease, renewed on every `done`. 0 disables.
  std::int64_t lease_ms = 0;
};

/// What the engine counted; the callers copy it into their reports.
struct LeasePoolStats {
  std::size_t crashes = 0;          ///< unclean deaths the engine did not cause
  std::size_t hang_kills = 0;       ///< heartbeat-timeout kills
  std::size_t lease_expiries = 0;   ///< lease-deadline kills
  std::size_t protocol_errors = 0;  ///< garbled result streams
  std::size_t respawns = 0;         ///< children spawned beyond the pool
  bool interrupted = false;  ///< drained by a signal or stop request
};

/// The caller's policy. Hooks run on the engine's thread; the optional ones
/// may be left empty.
struct LeasePoolHooks {
  /// In the parent, before a slot's child is forked (optional).
  std::function<void(int slot)> before_spawn;
  /// In the child after fork, with its ends of the two pipes; must not
  /// return (it ends in LeaseChild::serve).
  std::function<void(int slot, int command_fd, int result_fd)> child_main;
  /// A ready child holds no lease: lease it work with LeasePool::lease.
  std::function<void(const LeaseSlot&)> grant;
  /// The child completed its `ready` handshake (optional).
  std::function<void(const LeaseSlot&)> on_ready;
  /// `done <item> <samples>` arrived; the item has left slot.leased.
  std::function<void(const LeaseSlot&, std::size_t item, std::uint64_t samples)>
      on_done;
  /// The child was reaped after its last lines were applied; slot.leased
  /// and slot.inflight still hold what it left unfinished.
  std::function<void(const LeaseSlot&, const ChildExit&)> on_exit;
  /// Delay before the slot of a child that died mid-run is refilled
  /// (optional; empty refills at once).
  std::function<std::int64_t(int slot)> respawn_delay_ms;
  /// Every item is settled: drain the pool and return.
  std::function<bool()> finished;
  /// Whether a dead slot should be refilled now.
  std::function<bool()> has_work;
  /// Draining began before finished() (optional).
  std::function<void()> on_interrupt;
};

/// The parent side. Single-shot per run(): spawn the pool, lease until
/// finished() or a stop, drain, and return the counters.
class LeasePool {
 public:
  explicit LeasePool(LeasePoolOptions options);
  ~LeasePool();
  LeasePool(const LeasePool&) = delete;
  LeasePool& operator=(const LeasePool&) = delete;

  /// Runs the pool until every child is reaped. `stop` asks for a drain as
  /// SIGINT/SIGTERM do (safe to set from another thread). Throws
  /// std::runtime_error when fork fails or too many children in a row die
  /// before `ready`; any exception kills every child before it propagates.
  LeasePoolStats run(const LeasePoolHooks& hooks, const std::atomic<bool>& stop);

  /// Sends `items` to `slot` as one lease and starts its lease clock (for
  /// use from the grant hook). False when the child is already gone: the
  /// items were not leased, and the reaper will report the death.
  bool lease(int slot, const std::vector<protocol::LeaseItem>& items);

 private:
  struct Child;

  Child spawn(int slot);
  bool apply_lines(Child& child);
  void reap(Child& child, const util::ExitStatus& status);
  void kill_child(Child& child, const std::string& reason);
  void kill_all();

  LeasePoolOptions options_;
  const LeasePoolHooks* hooks_ = nullptr;
  std::vector<Child> children_;
  LeasePoolStats stats_;
  int spawn_failures_ = 0;
};

/// The child side: one command loop shared by supervisor workers and host
/// agents.
class LeaseChild {
 public:
  /// Runs one leased item and returns its sample count for `done`.
  using Collector = std::function<std::uint64_t(const protocol::LeaseItem&)>;

  LeaseChild(int command_fd, int result_fd, std::int64_t heartbeat_interval_ms);

  int result_fd() const { return result_fd_; }

  /// Counts one measured sample and sends `hb` at most once per heartbeat
  /// interval. Exits quietly when the parent is gone.
  void sample_done();

  /// Runs `prepare` (optional), sends `ready`, then serves leases until
  /// `exit` (answered with `bye`) or the command pipe closes. A pending
  /// `exit` between items abandons the rest of the lease; a garbled command
  /// exits 12 and an exception from `prepare` or `collect` exits 11. Never
  /// returns (_exit skips the parent's atexit machinery inherited by fork).
  [[noreturn]] void serve(std::size_t item_count,
                          const std::function<void()>& prepare,
                          const Collector& collect);

 private:
  /// Writes `line` to the parent; exits quietly when the parent is gone.
  void send(const std::string& line) const;

  int command_fd_;
  int result_fd_;
  std::int64_t heartbeat_interval_ms_;
  std::int64_t last_heartbeat_ms_;
  std::uint64_t total_samples_ = 0;
};

}  // namespace omptune::sweep

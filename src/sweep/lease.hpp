#pragma once

// Shard leases and backoff for the multi-host sweep coordinator
// (DESIGN.md §11), shared with the supervisor's worker-respawn path.
//
// A shard lease is the coordinator's unit of trust: exactly one host may
// hold a shard at a time, the hold expires (lease TTL) or is revoked
// (missed heartbeats), and every failed attempt gates the next re-lease
// behind util::BackoffPolicy (exponential backoff with decorrelated
// jitter, see util/backoff.hpp) — a persistently failing shard (or a
// persistently crashing environment) must never hot-loop the fork/retry
// path, and N coordinators recovering from the same outage must not
// thundering-herd their retries in lockstep.
//
// LeaseTable is the coordinator's write-ahead state: serialize() renders
// the table to a stable text form that is atomically persisted before the
// coordinator acts on a transition, and parse() restores it on --resume.
// A lease never survives its coordinator: Leased serializes as Pending
// (the holder is dead by definition when the state is re-read).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/backoff.hpp"

namespace omptune::sweep {

/// The shared decorrelated-jitter policy (extracted to util/backoff.hpp;
/// the alias keeps the coordinator/supervisor spelling stable).
using BackoffPolicy = util::BackoffPolicy;

/// Lifecycle of one shard manifest.
enum class ShardState {
  Pending,      ///< waiting for a host (possibly behind a backoff gate)
  Leased,       ///< exactly one host is collecting it
  Completed,    ///< shard store delivered and validated
  Quarantined,  ///< attempt cap exhausted; placeholder store synthesized
};

const char* to_string(ShardState state);

/// One row of the coordinator's lease table.
struct ShardLease {
  std::size_t shard = 0;
  ShardState state = ShardState::Pending;
  int attempts = 0;   ///< failed collection attempts so far
  int holder = -1;    ///< host slot while Leased, -1 otherwise
  std::string evidence;  ///< last failure description (persisted)

  // Volatile scheduling state (monotonic clock; never persisted). The TTL
  // of a live lease is the holder's deadline in the lease pool.
  std::int64_t eligible_at_ms = 0;     ///< backoff gate for the next lease
  std::int64_t prev_delay_ms = 0;      ///< decorrelated-jitter state
};

/// The coordinator's shard ledger. Indexed by shard number; persisted via
/// serialize()/parse() as the write-ahead state behind --resume.
class LeaseTable {
 public:
  LeaseTable() = default;
  explicit LeaseTable(std::size_t shard_count);

  std::size_t size() const { return shards_.size(); }
  ShardLease& at(std::size_t shard) { return shards_.at(shard); }
  const ShardLease& at(std::size_t shard) const { return shards_.at(shard); }

  std::size_t count(ShardState state) const;

  /// Every shard Completed or Quarantined — nothing left to lease.
  bool all_settled() const;

  /// Lowest-numbered Pending shard whose backoff gate has passed at `now`;
  /// nullopt when nothing is leasable right now (all settled, all leased,
  /// or all gated).
  std::optional<std::size_t> next_leasable(std::int64_t now) const;

  /// Stable text form: one "shard <i> <state> <attempts> [evidence]" line
  /// per shard, closed by an "end <count>" sentinel (rows lost to a merged
  /// or truncated line are structurally detectable). Leased shards render
  /// as pending (a lease does not survive the coordinator that granted it).
  std::string serialize() const;

  /// Inverse of serialize(). Throws util::DataCorruptionError on any
  /// malformed line — corrupt coordinator state must be surfaced, never
  /// guessed about.
  static LeaseTable parse(const std::string& text);

 private:
  std::vector<ShardLease> shards_;
};

}  // namespace omptune::sweep

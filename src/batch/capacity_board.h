// Free-capacity exchange between the shards of a federated scheduler.
//
// Each shard of a federated scenario (batch/scale.cpp, batch/replay.cpp)
// decides where to forward a blocked job from what it knows of the other
// shards' free capacity.  That knowledge crosses the fabric: a change a
// shard makes in its pass at t becomes visible to the others at the grid
// instant when = align_up(t + latency, cycle).  The board is that channel,
// with one entry per change instead of one message per (source, reader)
// pair.
//
// Contract (the same decisions as a message per pair):
//   * A shard publishes (when, free) from its pass whenever its free
//     capacity differs from what it last published.
//   * A reader's pass at t sees, per source, the newest entry with
//     when <= t.  An entry the reader has not applied yet overwrites the
//     value its own forward debits lowered (last writer wins); one it
//     already applied leaves the debited value alone.
//   * A reader with a non-empty queue gets a pass at when + 1 for an entry
//     another shard publishes at `when`: its head may now have somewhere to
//     go.  One wake per blocked reader does this: a pass that ends with a
//     non-empty queue parks the reader with a wake at the next instant at
//     which another shard publishes; a new publication pulls a parked
//     reader's wake forward; a pass that ends with an empty queue cancels
//     it.  A superseded wake is cancelled, never left to fire, so the wakes
//     that run — and hence the event counts — are the same in serial and
//     sharded runs.
//   * A reader whose pass can only act on a capacity change by forwarding
//     its head (FCFS) may park with a need instead: then only a
//     publication of at least that much free capacity wakes it.  The
//     passes this skips are the ones that would have found no target and
//     changed nothing.
//
// Threading.  Attached to a serial engine, publications apply at once.
// Attached to a sim::ShardedEngine, each source buffers its own
// publications and the engine's round hook applies them between windows in
// (source, order).  The cross-shard latency is the engine's lookahead, so
// an entry published inside a window is never visible inside it: the board
// is read-only while workers run, and a worker writes only its own shard's
// rows and buffer.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/engine.h"
#include "sim/sharded.h"
#include "util/time.h"

namespace hpcs::batch {

class CapacityBoard {
 public:
  /// Called on `shard` at `when` when its wake fires; the scenario requests
  /// a pass there if the shard's queue is still non-empty.
  using WakeFn = std::function<void(int shard, SimTime when)>;

  /// `capacity[s]` is shard s's free capacity at the start; every reader
  /// knows it.  Attach an engine before any pass runs.
  CapacityBoard(const std::vector<int>& capacity, SimDuration latency,
                SimDuration cycle, WakeFn wake);
  ~CapacityBoard();

  CapacityBoard(const CapacityBoard&) = delete;
  CapacityBoard& operator=(const CapacityBoard&) = delete;

  /// Serial run: every shard's wake lives on `engine`.
  void attach(sim::Engine& engine);
  /// Sharded run: wakes live on the shards' engines, and publications are
  /// applied from `engine`'s round hook (removed again by the destructor).
  void attach(sim::ShardedEngine& engine);

  /// From `reader`'s pass at `t`: the other shard with the most known free
  /// capacity, at least `need` (lowest id among equals), or -1.
  int pick_target(int reader, SimTime t, int need);

  /// `reader` forwarded `amount` to `target`: lower its estimate so one pass
  /// does not herd every blocked job at the same target.  The next entry
  /// `target` publishes restores the truth.
  void debit(int reader, int target, int amount);

  /// end_pass() wake needs: stay asleep (nothing queued), or wake at any
  /// capacity change of another shard.  A need in between wakes the shard
  /// only at a change to at least `need` free.
  static constexpr int kNoWake = std::numeric_limits<int>::max();
  static constexpr int kAnyChange = std::numeric_limits<int>::min();

  /// End of `shard`'s pass at `t`: publish `free` if it changed, then park
  /// the shard until the next change by another shard that meets `need`.
  void end_pass(int shard, SimTime t, int free, int need);

  /// Capacity exchange cost: wake events that ran (what the scenario
  /// reports as gossip_messages), and entries x readers, the number of
  /// per-pair deliveries the board stands in for.
  std::uint64_t wakes() const;
  std::uint64_t capacity_updates() const;

 private:
  /// One publication; `seq` numbers a source's publications from 1.
  struct Entry {
    SimTime when = 0;
    int free = 0;
    std::uint64_t seq = 0;
  };
  // Each worker writes only its own shard's Source and Reader; keep them
  // on separate cache lines.
  struct alignas(64) Source {
    /// Published entries in ascending `when`, trimmed as passes move on.
    std::vector<Entry> entries;
    /// Sharded runs: this window's publications, applied at the barrier.
    std::vector<Entry> pending;
    int advertised = 0;
    std::uint64_t published = 0;
  };
  struct alignas(64) Reader {
    /// Per source: the free capacity this reader knows of, and the newest
    /// entry it applied.
    std::vector<int> known;
    std::vector<std::uint64_t> applied;
    /// What wakes this reader; kNoWake while it is not parked.
    int need = kNoWake;
    SimTime wake_at = sim::kNoEvent;
    sim::EventId wake_id = sim::kInvalidEventId;
    std::uint64_t wakes = 0;
  };

  int shards() const { return static_cast<int>(sources_.size()); }
  void refresh(int reader, SimTime t);
  /// Earliest entry after `t` by another shard that meets the reader's
  /// need (kNoEvent if none).
  SimTime next_wake(int reader, SimTime t) const;
  /// Move `reader`'s wake to `when` (kNoEvent: none), cancelling the old.
  void arm(int reader, SimTime when);
  void on_wake(int reader, SimTime when);
  /// Pull parked readers' wakes forward to a publication by `src`.
  void pull_forward(int src, const Entry& entry);
  /// Drop entries no pass can read any more: no event runs before `floor`.
  void trim(Source& source, SimTime floor);
  /// Round hook: apply the window's publications in (source, order).
  void flush();

  SimDuration latency_;
  SimDuration cycle_;
  WakeFn wake_;
  std::vector<Source> sources_;
  std::vector<Reader> readers_;
  std::vector<sim::Engine*> engines_;  // per shard
  sim::ShardedEngine* sharded_ = nullptr;
};

}  // namespace hpcs::batch

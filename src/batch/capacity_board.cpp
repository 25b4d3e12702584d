#include "batch/capacity_board.h"

#include <algorithm>
#include <utility>

namespace hpcs::batch {
namespace {

SimTime align_up(SimTime t, SimDuration q) { return (t + q - 1) / q * q; }

std::size_t ix(int shard) { return static_cast<std::size_t>(shard); }

}  // namespace

CapacityBoard::CapacityBoard(const std::vector<int>& capacity,
                             SimDuration latency, SimDuration cycle,
                             WakeFn wake)
    : latency_(latency),
      cycle_(cycle),
      wake_(std::move(wake)),
      sources_(capacity.size()),
      readers_(capacity.size()) {
  for (std::size_t s = 0; s < capacity.size(); ++s) {
    sources_[s].advertised = capacity[s];
    readers_[s].known = capacity;
    readers_[s].applied.assign(capacity.size(), 0);
  }
}

CapacityBoard::~CapacityBoard() {
  if (sharded_ != nullptr) sharded_->set_round_hook(nullptr);
}

void CapacityBoard::attach(sim::Engine& engine) {
  engines_.assign(sources_.size(), &engine);
}

void CapacityBoard::attach(sim::ShardedEngine& engine) {
  engines_.clear();
  for (int s = 0; s < shards(); ++s) engines_.push_back(&engine.shard(s));
  sharded_ = &engine;
  engine.set_round_hook([this] { flush(); });
}

void CapacityBoard::refresh(int reader, SimTime t) {
  Reader& r = readers_[ix(reader)];
  for (int s = 0; s < shards(); ++s) {
    if (s == reader) continue;
    const std::vector<Entry>& entries = sources_[ix(s)].entries;
    // The newest entry visible at t, applied unless it already was.
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      if (it->when > t) continue;
      if (it->seq > r.applied[ix(s)]) {
        r.known[ix(s)] = it->free;
        r.applied[ix(s)] = it->seq;
      }
      break;
    }
  }
}

int CapacityBoard::pick_target(int reader, SimTime t, int need) {
  refresh(reader, t);
  const Reader& r = readers_[ix(reader)];
  int best = -1;
  int best_free = 0;
  for (int k = 0; k < shards(); ++k) {
    if (k == reader) continue;
    const int free = r.known[ix(k)];
    if (free >= need && free > best_free) {
      best = k;
      best_free = free;
    }
  }
  return best;
}

void CapacityBoard::debit(int reader, int target, int amount) {
  readers_[ix(reader)].known[ix(target)] -= amount;
}

void CapacityBoard::end_pass(int shard, SimTime t, int free, int need) {
  Source& source = sources_[ix(shard)];
  if (free != source.advertised) {
    source.advertised = free;
    const Entry entry{align_up(t + latency_, cycle_), free, ++source.published};
    if (sharded_ != nullptr) {
      source.pending.push_back(entry);
    } else {
      source.entries.push_back(entry);
      pull_forward(shard, entry);
      trim(source, t);
    }
  }
  readers_[ix(shard)].need = need;
  arm(shard, next_wake(shard, t));
}

SimTime CapacityBoard::next_wake(int reader, SimTime t) const {
  const int need = readers_[ix(reader)].need;
  SimTime next = sim::kNoEvent;
  if (need == kNoWake) return next;
  for (int s = 0; s < shards(); ++s) {
    if (s == reader) continue;
    for (const Entry& entry : sources_[ix(s)].entries) {
      if (entry.when > t && entry.free >= need) {
        next = std::min(next, entry.when);
        break;
      }
    }
  }
  return next;
}

void CapacityBoard::arm(int reader, SimTime when) {
  Reader& r = readers_[ix(reader)];
  if (when == r.wake_at) return;
  sim::Engine& engine = *engines_[ix(reader)];
  if (r.wake_id != sim::kInvalidEventId) engine.cancel(r.wake_id);
  r.wake_at = when;
  r.wake_id = sim::kInvalidEventId;
  if (when == sim::kNoEvent) return;
  auto fire = [this, reader, when] { on_wake(reader, when); };
  r.wake_id = engine.schedule_at(when, std::move(fire));
}

void CapacityBoard::on_wake(int reader, SimTime when) {
  Reader& r = readers_[ix(reader)];
  r.wake_at = sim::kNoEvent;
  r.wake_id = sim::kInvalidEventId;
  ++r.wakes;
  wake_(reader, when);
}

void CapacityBoard::pull_forward(int src, const Entry& entry) {
  for (int k = 0; k < shards(); ++k) {
    const Reader& r = readers_[ix(k)];
    if (k != src && r.need != kNoWake && entry.free >= r.need &&
        entry.when < r.wake_at) {
      arm(k, entry.when);
    }
  }
}

void CapacityBoard::trim(Source& source, SimTime floor) {
  // Keep the newest entry at or before `floor` (a pass may still need it)
  // and everything after it.
  std::size_t keep = 0;
  while (keep + 1 < source.entries.size() &&
         source.entries[keep + 1].when <= floor) {
    ++keep;
  }
  source.entries.erase(source.entries.begin(),
                       source.entries.begin() +
                           static_cast<std::ptrdiff_t>(keep));
}

void CapacityBoard::flush() {
  for (int s = 0; s < shards(); ++s) {
    Source& source = sources_[ix(s)];
    for (const Entry& entry : source.pending) {
      source.entries.push_back(entry);
      pull_forward(s, entry);
    }
    source.pending.clear();
  }
  // Every event from here on, the wakes just armed included, runs at or
  // after the earliest pending one.
  SimTime floor = sim::kNoEvent;
  for (const sim::Engine* engine : engines_) {
    floor = std::min(floor, engine->next_event_time());
  }
  for (Source& source : sources_) trim(source, floor);
}

std::uint64_t CapacityBoard::wakes() const {
  std::uint64_t total = 0;
  for (const Reader& r : readers_) total += r.wakes;
  return total;
}

std::uint64_t CapacityBoard::capacity_updates() const {
  std::uint64_t total = 0;
  for (const Source& source : sources_) total += source.published;
  return total * static_cast<std::uint64_t>(shards() - 1);
}

}  // namespace hpcs::batch

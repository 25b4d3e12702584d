// Differential test of batch::NodeAllocator's incremental free-run index.
//
// ScanAllocator below is the allocator as it was before the index existed:
// every pick rescans all node states for free runs, every shared-mode
// capacity check recounts every node.  It is slow and obviously right, so it
// serves as the oracle: seeded random sequences of allocate, release,
// set_offline/set_online and shared-slot allocate_slots/release_slots run
// against both, and after every operation the returned node lists,
// contiguity flag, stats, counts and per-node state must agree exactly, and
// the indexed allocator's own audit (check_conservation) must pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "batch/allocator.h"
#include "util/rng.h"

namespace hpcs::batch {
namespace {

class ScanAllocator {
 public:
  ScanAllocator(int nodes, int block, AllocPolicy policy, int slots_per_node)
      : states_(static_cast<std::size_t>(nodes), NodeState::kFree),
        slot_busy_(static_cast<std::size_t>(nodes), 0),
        block_(std::clamp(block, 1, std::max(nodes, 1))),
        policy_(policy),
        slots_per_node_(slots_per_node),
        free_(nodes) {}

  std::optional<std::vector<int>> allocate(int n) {
    if (n > free_) return std::nullopt;
    std::vector<int> picked = policy_ == AllocPolicy::kScatter
                                  ? pick_scattered(n)
                                  : pick_best_fit(n, free_runs());
    for (int node : picked) {
      states_[at(node)] = NodeState::kBusy;
      slot_busy_[at(node)] = slots_per_node_;
    }
    free_ -= n;
    busy_ += n;
    ++stats_.allocations;
    std::sort(picked.begin(), picked.end());
    return picked;
  }

  std::optional<std::vector<int>> allocate_slots(int n) {
    if (slots_per_node_ == 1) return allocate(n);
    if (n > free_slots()) return std::nullopt;
    std::vector<int> picked;
    int needed = n;
    for (int i = 0; i < total() && needed > 0; ++i) {
      if (states_[at(i)] != NodeState::kBusy) continue;
      const int take = std::min(slots_per_node_ - slot_busy_[at(i)], needed);
      if (take <= 0) continue;
      slot_busy_[at(i)] += take;
      needed -= take;
      picked.insert(picked.end(), static_cast<std::size_t>(take), i);
    }
    if (needed > 0) {
      const int whole = (needed + slots_per_node_ - 1) / slots_per_node_;
      std::vector<int> nodes = policy_ == AllocPolicy::kScatter
                                   ? pick_scattered(whole)
                                   : pick_best_fit(whole, free_runs());
      for (int node : nodes) {
        states_[at(node)] = NodeState::kBusy;
        --free_;
        ++busy_;
        const int take = std::min(slots_per_node_, needed);
        slot_busy_[at(node)] = take;
        needed -= take;
        picked.insert(picked.end(), static_cast<std::size_t>(take), node);
      }
    } else {
      last_contiguous_ = picked.front() == picked.back();
      if (last_contiguous_) {
        ++stats_.contiguous;
      } else {
        ++stats_.fragmented;
      }
    }
    ++stats_.allocations;
    std::sort(picked.begin(), picked.end());
    return picked;
  }

  void release(const std::vector<int>& nodes) {
    for (int node : nodes) {
      if (states_[at(node)] == NodeState::kBusy) {
        states_[at(node)] = NodeState::kFree;
        slot_busy_[at(node)] = 0;
        --busy_;
        ++free_;
      }
    }
    ++stats_.releases;
  }

  void release_slots(const std::vector<int>& slots) {
    if (slots_per_node_ == 1) {
      release(slots);
      return;
    }
    for (int node : slots) {
      if (states_[at(node)] == NodeState::kBusy) {
        if (--slot_busy_[at(node)] == 0) {
          states_[at(node)] = NodeState::kFree;
          --busy_;
          ++free_;
        }
      } else if (slot_busy_[at(node)] > 0) {  // offline under the job
        --slot_busy_[at(node)];
      }
    }
    ++stats_.releases;
  }

  NodeState set_offline(int node) {
    const NodeState prev = states_[at(node)];
    if (prev == NodeState::kOffline) return prev;
    if (prev == NodeState::kFree) {
      --free_;
    } else {
      --busy_;
    }
    states_[at(node)] = NodeState::kOffline;
    ++offline_;
    return prev;
  }

  void set_online(int node) {
    if (states_[at(node)] != NodeState::kOffline) return;
    states_[at(node)] = NodeState::kFree;
    slot_busy_[at(node)] = 0;
    --offline_;
    ++free_;
  }

  int free_slots() const {
    int slots = 0;
    for (int i = 0; i < total(); ++i) {
      if (states_[at(i)] == NodeState::kOffline) continue;
      slots += slots_per_node_ - slot_busy_[at(i)];
    }
    return slots;
  }

  int total() const { return static_cast<int>(states_.size()); }
  NodeState state(int node) const { return states_[at(node)]; }
  int busy_slots(int node) const { return slot_busy_[at(node)]; }
  int free_count() const { return free_; }
  int busy_count() const { return busy_; }
  int offline_count() const { return offline_; }
  bool last_allocation_contiguous() const { return last_contiguous_; }
  const AllocatorStats& stats() const { return stats_; }

 private:
  struct Run {
    int start = 0;
    int length = 0;
  };

  static std::size_t at(int node) { return static_cast<std::size_t>(node); }

  std::vector<Run> free_runs() const {
    std::vector<Run> runs;
    int start = -1;
    for (int i = 0; i <= total(); ++i) {
      const bool is_free = i < total() && states_[at(i)] == NodeState::kFree;
      if (is_free && start < 0) start = i;
      if (!is_free && start >= 0) {
        runs.push_back({start, i - start});
        start = -1;
      }
    }
    return runs;
  }

  std::vector<int> pick_best_fit(int n, const std::vector<Run>& runs) {
    std::vector<int> picked;
    const Run* best = nullptr;
    for (const Run& run : runs) {
      if (run.length < n) continue;
      if (best == nullptr || run.length < best->length ||
          (run.length == best->length && run.start % block_ == 0 &&
           best->start % block_ != 0)) {
        best = &run;
      }
    }
    if (best != nullptr) {
      int start = best->start;
      const int aligned = (best->start + block_ - 1) / block_ * block_;
      if (aligned > best->start && aligned + n <= best->start + best->length) {
        start = aligned;
      }
      for (int i = 0; i < n; ++i) picked.push_back(start + i);
      last_contiguous_ = true;
      ++stats_.contiguous;
    } else {
      std::vector<Run> by_size = runs;
      std::stable_sort(by_size.begin(), by_size.end(),
                       [](const Run& a, const Run& b) {
                         if (a.length != b.length) return a.length > b.length;
                         return a.start < b.start;
                       });
      int needed = n;
      for (const Run& run : by_size) {
        const int take = std::min(run.length, needed);
        for (int i = 0; i < take; ++i) picked.push_back(run.start + i);
        needed -= take;
        if (needed == 0) break;
      }
      last_contiguous_ = false;
      ++stats_.fragmented;
    }
    return picked;
  }

  std::vector<int> pick_scattered(int n) {
    std::vector<int> picked;
    for (int offset = 0; offset < block_ && static_cast<int>(picked.size()) < n;
         ++offset) {
      for (int start = 0;
           start < total() && static_cast<int>(picked.size()) < n;
           start += block_) {
        const int node = start + offset;
        if (node < total() && states_[at(node)] == NodeState::kFree) {
          picked.push_back(node);
        }
      }
    }
    std::sort(picked.begin(), picked.end());
    last_contiguous_ =
        picked.back() - picked.front() == static_cast<int>(picked.size()) - 1;
    if (last_contiguous_) {
      ++stats_.contiguous;
    } else {
      ++stats_.fragmented;
    }
    return picked;
  }

  std::vector<NodeState> states_;
  std::vector<int> slot_busy_;
  int block_;
  AllocPolicy policy_;
  int slots_per_node_;
  int free_ = 0;
  int busy_ = 0;
  int offline_ = 0;
  bool last_contiguous_ = false;
  AllocatorStats stats_;
};

struct Shape {
  int nodes;
  int block;
  int slots_per_node;
  AllocPolicy policy;
};

std::string describe(const Shape& shape, std::uint64_t seed) {
  return std::to_string(shape.nodes) + " nodes, block " +
         std::to_string(shape.block) + ", " +
         std::to_string(shape.slots_per_node) + " slots/node, " +
         alloc_policy_name(shape.policy) + ", seed " + std::to_string(seed);
}

/// Everything observable must agree; stops the sequence at the first
/// divergence so the failure names the op that caused it.
::testing::AssertionResult same_state(const NodeAllocator& got,
                                      const ScanAllocator& want) {
  if (got.free_count() != want.free_count() ||
      got.busy_count() != want.busy_count() ||
      got.offline_count() != want.offline_count()) {
    return ::testing::AssertionFailure() << "node counts differ";
  }
  if (got.free_slots() != want.free_slots()) {
    return ::testing::AssertionFailure()
           << "free_slots " << got.free_slots() << " vs " << want.free_slots();
  }
  if (got.last_allocation_contiguous() != want.last_allocation_contiguous()) {
    return ::testing::AssertionFailure() << "contiguity flag differs";
  }
  const AllocatorStats& a = got.stats();
  const AllocatorStats& b = want.stats();
  if (a.allocations != b.allocations || a.releases != b.releases ||
      a.contiguous != b.contiguous || a.fragmented != b.fragmented) {
    return ::testing::AssertionFailure() << "stats differ";
  }
  for (int i = 0; i < want.total(); ++i) {
    if (got.state(i) != want.state(i) ||
        got.busy_slots(i) != want.busy_slots(i)) {
      return ::testing::AssertionFailure() << "node " << i << " differs";
    }
  }
  try {
    got.check_conservation();
  } catch (const std::logic_error& e) {
    return ::testing::AssertionFailure() << e.what();
  }
  return ::testing::AssertionSuccess();
}

/// Uniform integer in [lo, hi].
int pick(util::Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(lo),
                                          static_cast<std::uint64_t>(hi)));
}

/// One seeded sequence of `ops` operations against both allocators.
void run_sequence(const Shape& shape, std::uint64_t seed, int ops) {
  SCOPED_TRACE(describe(shape, seed));
  NodeAllocator got(shape.nodes, shape.block, shape.policy,
                    shape.slots_per_node);
  ScanAllocator want(shape.nodes, shape.block, shape.policy,
                     shape.slots_per_node);
  util::Rng rng(seed);
  const bool shared = shape.slots_per_node > 1;
  struct Held {
    std::vector<int> nodes;
    bool slots;  // from allocate_slots (release with release_slots)
  };
  std::vector<Held> held;
  const int max_width = std::max(1, shape.nodes / 3);
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const double u = rng.uniform();
    if (u < 0.40) {
      // Mostly narrow requests, sometimes wide ones that force fragments.
      const bool narrow = rng.uniform() < 0.8;
      const int n = pick(rng, 1, narrow ? std::min(8, shape.nodes) : max_width);
      const bool slots = shared && rng.uniform() < 0.6;
      const auto a = slots ? got.allocate_slots(n) : got.allocate(n);
      const auto b = slots ? want.allocate_slots(n) : want.allocate(n);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        ASSERT_EQ(*a, *b);
        held.push_back({*a, slots});
      }
    } else if (u < 0.80) {
      if (held.empty()) continue;
      const int ix = pick(rng, 0, static_cast<int>(held.size()) - 1);
      const Held h = held[static_cast<std::size_t>(ix)];
      held.erase(held.begin() + ix);
      if (h.slots) {
        got.release_slots(h.nodes);
        want.release_slots(h.nodes);
      } else {
        got.release(h.nodes);
        want.release(h.nodes);
      }
    } else if (u < 0.90) {
      const int node = pick(rng, 0, shape.nodes - 1);
      ASSERT_EQ(got.set_offline(node), want.set_offline(node));
    } else {
      const int node = pick(rng, 0, shape.nodes - 1);
      got.set_online(node);
      want.set_online(node);
      // A repaired node comes back empty: the jobs that held it were
      // aborted.  Release the rest of each such job (as the scheduler
      // does) so the pool does not drain over a long sequence.
      for (auto it = held.begin(); it != held.end();) {
        if (std::find(it->nodes.begin(), it->nodes.end(), node) ==
            it->nodes.end()) {
          ++it;
          continue;
        }
        std::vector<int> rest;
        for (const int other : it->nodes) {
          if (other != node) rest.push_back(other);
        }
        if (it->slots) {
          got.release_slots(rest);
          want.release_slots(rest);
        } else {
          got.release(rest);
          want.release(rest);
        }
        it = held.erase(it);
      }
    }
    ASSERT_TRUE(same_state(got, want));
  }
}

constexpr int kOps = 10000;

TEST(AllocatorDiffTest, ExclusiveBestFitMatchesScanOracle) {
  for (const int nodes : {1, 7, 56, 625}) {
    for (const int block : {1, 4, 32}) {
      run_sequence({nodes, block, 1, AllocPolicy::kBestFit}, 11, kOps);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(AllocatorDiffTest, SharedSlotsMatchScanOracle) {
  for (const int nodes : {1, 7, 56, 625}) {
    for (const int block : {1, 4, 32}) {
      for (const int slots : {2, 3}) {
        run_sequence({nodes, block, slots, AllocPolicy::kBestFit}, 23, kOps);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(AllocatorDiffTest, ScatterPolicyMatchesScanOracle) {
  for (const int nodes : {7, 56, 625}) {
    for (const int block : {4, 32}) {
      run_sequence({nodes, block, 1, AllocPolicy::kScatter}, 37, kOps);
      run_sequence({nodes, block, 2, AllocPolicy::kScatter}, 41, kOps);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(AllocatorDiffTest, SeedsVaryTheSequences) {
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    run_sequence({56, 4, 1, AllocPolicy::kBestFit}, seed, kOps);
    run_sequence({56, 4, 2, AllocPolicy::kBestFit}, seed, kOps);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace hpcs::batch

#include "batch/allocator.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace hpcs::batch {
namespace {

using Bits = std::vector<std::uint64_t>;

Bits make_bits(int count) {
  return Bits(static_cast<std::size_t>(count + 63) / 64, 0);
}

void set_bit(Bits& bits, int i) {
  bits[static_cast<std::size_t>(i) / 64] |= 1ULL << (i % 64);
}

void clear_bit(Bits& bits, int i) {
  bits[static_cast<std::size_t>(i) / 64] &= ~(1ULL << (i % 64));
}

bool test_bit(const Bits& bits, int i) {
  return (bits[static_cast<std::size_t>(i) / 64] >> (i % 64) & 1) != 0;
}

/// Lowest set bit at or above `from`, or -1.
int next_bit(const Bits& bits, int from) {
  std::size_t w = static_cast<std::size_t>(from) / 64;
  if (w >= bits.size()) return -1;
  std::uint64_t word = bits[w] & (~0ULL << (from % 64));
  while (word == 0) {
    if (++w == bits.size()) return -1;
    word = bits[w];
  }
  return static_cast<int>(w * 64) + std::countr_zero(word);
}

/// Highest set bit at or below `from`, or -1.
int prev_bit(const Bits& bits, int from) {
  if (from < 0) return -1;
  std::size_t w = static_cast<std::size_t>(from) / 64;
  std::uint64_t word = bits[w] & (~0ULL >> (63 - from % 64));
  while (word == 0) {
    if (w == 0) return -1;
    word = bits[--w];
  }
  return static_cast<int>(w * 64) + 63 - std::countl_zero(word);
}

/// Calls `fn(start, length)` for each maximal run of consecutive ids in a
/// sorted node list.
template <typename Fn>
void for_each_range(const std::vector<int>& sorted, Fn fn) {
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i + 1;
    while (j < sorted.size() && sorted[j] == sorted[j - 1] + 1) ++j;
    fn(sorted[i], static_cast<int>(j - i));
    i = j;
  }
}

}  // namespace

const char* alloc_policy_name(AllocPolicy policy) {
  switch (policy) {
    case AllocPolicy::kBestFit: return "best-fit";
    case AllocPolicy::kScatter: return "scatter";
  }
  return "?";
}

NodeAllocator::NodeAllocator(int nodes, int block, AllocPolicy policy,
                             int slots_per_node)
    : states_(static_cast<std::size_t>(std::max(nodes, 0)), NodeState::kFree),
      slot_busy_(static_cast<std::size_t>(std::max(nodes, 0)), 0),
      block_(std::clamp(block, 1, std::max(nodes, 1))),
      policy_(policy),
      slots_per_node_(slots_per_node),
      free_(nodes) {
  if (nodes <= 0) {
    throw std::invalid_argument("NodeAllocator: nodes must be positive");
  }
  if (slots_per_node <= 0) {
    throw std::invalid_argument(
        "NodeAllocator: slots_per_node must be positive");
  }
  free_slots_ = nodes * slots_per_node;
  run_len_.assign(static_cast<std::size_t>(nodes), 0);
  run_head_.assign(static_cast<std::size_t>(nodes), 0);
  by_length_.resize(2 * static_cast<std::size_t>(nodes + 1));
  lengths_in_use_ = make_bits(nodes + 1);
  partial_ = make_bits(nodes);
  add_run(0, nodes);
}

void NodeAllocator::check_node(int node) const {
  if (node < 0 || node >= total()) {
    throw std::out_of_range("NodeAllocator: node index out of range");
  }
}

std::size_t NodeAllocator::bucket_of(int start, int length) const {
  return 2 * static_cast<std::size_t>(length) + (start % block_ != 0 ? 1 : 0);
}

void NodeAllocator::add_run(int start, int length) {
  run_len_[static_cast<std::size_t>(start)] = length;
  run_head_[static_cast<std::size_t>(start + length - 1)] = start;
  std::vector<int>& starts = by_length_[bucket_of(start, length)];
  starts.insert(std::upper_bound(starts.begin(), starts.end(), start), start);
  set_bit(lengths_in_use_, length);
}

void NodeAllocator::erase_run(int start) {
  const int length = run_len_[static_cast<std::size_t>(start)];
  run_len_[static_cast<std::size_t>(start)] = 0;
  std::vector<int>& starts = by_length_[bucket_of(start, length)];
  starts.erase(std::lower_bound(starts.begin(), starts.end(), start));
  const auto len = static_cast<std::size_t>(length);
  if (by_length_[2 * len].empty() && by_length_[2 * len + 1].empty()) {
    clear_bit(lengths_in_use_, length);
  }
}

void NodeAllocator::claim_range(int start, int length) {
  // Consecutive free nodes always sit inside one run; find its head.
  int run_start = start;
  while (run_start > 0 &&
         states_[static_cast<std::size_t>(run_start - 1)] == NodeState::kFree) {
    --run_start;
  }
  const int run_end = run_start + run_len_[static_cast<std::size_t>(run_start)];
  erase_run(run_start);
  if (run_start < start) add_run(run_start, start - run_start);
  if (start + length < run_end) {
    add_run(start + length, run_end - start - length);
  }
}

void NodeAllocator::free_range(int start, int length) {
  // Only nodes outside the range are looked at: their states are current.
  int end = start + length;
  if (end < total() &&
      states_[static_cast<std::size_t>(end)] == NodeState::kFree) {
    const int right = run_len_[static_cast<std::size_t>(end)];
    erase_run(end);
    end += right;
  }
  if (start > 0 &&
      states_[static_cast<std::size_t>(start - 1)] == NodeState::kFree) {
    const int left = run_head_[static_cast<std::size_t>(start - 1)];
    erase_run(left);
    start = left;
  }
  add_run(start, end - start);
}

void NodeAllocator::take_nodes(const std::vector<int>& sorted) {
  for_each_range(sorted, [this](int start, int length) {
    claim_range(start, length);
    // Busy before the next range: claim_range finds run heads by state.
    for (int i = start; i < start + length; ++i) {
      states_[static_cast<std::size_t>(i)] = NodeState::kBusy;
    }
  });
  const int n = static_cast<int>(sorted.size());
  free_ -= n;
  busy_ += n;
}

void NodeAllocator::index_freed(std::vector<int>& nodes) {
  std::sort(nodes.begin(), nodes.end());
  for_each_range(nodes,
                 [this](int start, int length) { free_range(start, length); });
}

std::vector<int> NodeAllocator::pick_best_fit(int n) {
  std::vector<int> picked;
  picked.reserve(static_cast<std::size_t>(n));

  // Best fit: the smallest run that holds the whole request, preferring
  // block-aligned starts among equals (the "chip-aligned" choice).
  const int fit = next_bit(lengths_in_use_, n);
  if (fit >= 0) {
    const std::size_t aligned_bucket = 2 * static_cast<std::size_t>(fit);
    const bool misaligned = by_length_[aligned_bucket].empty();
    const int run_start =
        by_length_[aligned_bucket + (misaligned ? 1 : 0)].front();
    // Inside the chosen run, start at a block boundary when one fits so the
    // tail of the block stays usable for the next aligned request.
    int start = run_start;
    const int aligned = (run_start + block_ - 1) / block_ * block_;
    if (misaligned && aligned + n <= run_start + fit) start = aligned;
    for (int i = 0; i < n; ++i) picked.push_back(start + i);
    last_contiguous_ = true;
    ++stats_.contiguous;
  } else {
    // Gather from the largest runs first (fewest fragments), lowest start
    // first among equals.  No run fits, so every run is shorter than n, and
    // n <= free_ means the walk never runs dry.
    int needed = n;
    for (int length = prev_bit(lengths_in_use_, n - 1); needed > 0;
         length = prev_bit(lengths_in_use_, length - 1)) {
      const auto len = static_cast<std::size_t>(length);
      const std::vector<int>& a = by_length_[2 * len];
      const std::vector<int>& b = by_length_[2 * len + 1];
      std::size_t i = 0;
      std::size_t j = 0;
      while (needed > 0 && (i < a.size() || j < b.size())) {
        const int run_start =
            j == b.size() || (i < a.size() && a[i] < b[j]) ? a[i++] : b[j++];
        const int take = std::min(length, needed);
        for (int k = 0; k < take; ++k) picked.push_back(run_start + k);
        needed -= take;
      }
    }
    last_contiguous_ = false;
    ++stats_.fragmented;
  }
  return picked;
}

std::vector<int> NodeAllocator::pick_scattered(int n) {
  // Stripe across blocks: take the first free node of each block, then the
  // second, ... so an n-node job lands on min(n, blocks) different leaf
  // switches and its traffic crosses the spine.
  std::vector<int> picked;
  picked.reserve(static_cast<std::size_t>(n));
  for (int offset = 0; offset < block_ && static_cast<int>(picked.size()) < n;
       ++offset) {
    for (int start = 0; start < total() && static_cast<int>(picked.size()) < n;
         start += block_) {
      const int node = start + offset;
      if (node < total() &&
          states_[static_cast<std::size_t>(node)] == NodeState::kFree) {
        picked.push_back(node);
      }
    }
  }
  std::sort(picked.begin(), picked.end());
  const bool contiguous =
      picked.back() - picked.front() == static_cast<int>(picked.size()) - 1;
  last_contiguous_ = contiguous;
  if (contiguous) {
    ++stats_.contiguous;
  } else {
    ++stats_.fragmented;
  }
  return picked;
}

std::optional<std::vector<int>> NodeAllocator::allocate(int n) {
  if (n <= 0) throw std::invalid_argument("NodeAllocator: n must be positive");
  if (n > free_) return std::nullopt;
  std::vector<int> picked = policy_ == AllocPolicy::kScatter
                                ? pick_scattered(n)
                                : pick_best_fit(n);
  std::sort(picked.begin(), picked.end());
  take_nodes(picked);
  for (int node : picked) {
    slot_busy_[static_cast<std::size_t>(node)] = slots_per_node_;
  }
  free_slots_ -= n * slots_per_node_;
  ++stats_.allocations;
  return picked;
}

int NodeAllocator::busy_slots(int node) const {
  check_node(node);
  return slot_busy_[static_cast<std::size_t>(node)];
}

std::optional<std::vector<int>> NodeAllocator::allocate_slots(int n) {
  if (n <= 0) throw std::invalid_argument("NodeAllocator: n must be positive");
  if (slots_per_node_ == 1) return allocate(n);
  if (n > free_slots_) return std::nullopt;

  std::vector<int> picked;
  picked.reserve(static_cast<std::size_t>(n));
  int needed = n;
  // Pack partially-occupied nodes first (ascending id): co-location is the
  // point of shared mode, and topping up keeps whole nodes free for
  // exclusive allocations.
  for (int node = next_bit(partial_, 0); node >= 0 && needed > 0;
       node = next_bit(partial_, node + 1)) {
    int& occupied = slot_busy_[static_cast<std::size_t>(node)];
    const int take = std::min(slots_per_node_ - occupied, needed);
    occupied += take;
    needed -= take;
    picked.insert(picked.end(), static_cast<std::size_t>(take), node);
    if (occupied == slots_per_node_) clear_bit(partial_, node);
  }
  if (needed > 0) {
    // Remainder claims whole free nodes through the placement policy.
    const int whole = (needed + slots_per_node_ - 1) / slots_per_node_;
    std::vector<int> nodes = policy_ == AllocPolicy::kScatter
                                 ? pick_scattered(whole)
                                 : pick_best_fit(whole);
    for (int node : nodes) {
      const int take = std::min(slots_per_node_, needed);
      slot_busy_[static_cast<std::size_t>(node)] = take;
      if (take < slots_per_node_) set_bit(partial_, node);
      needed -= take;
      picked.insert(picked.end(), static_cast<std::size_t>(take), node);
    }
    std::sort(nodes.begin(), nodes.end());
    take_nodes(nodes);
  } else {
    // Served entirely by packing; contiguity means one node here.
    last_contiguous_ = picked.front() == picked.back();
    if (last_contiguous_) {
      ++stats_.contiguous;
    } else {
      ++stats_.fragmented;
    }
  }
  free_slots_ -= n;
  ++stats_.allocations;
  std::sort(picked.begin(), picked.end());
  return picked;
}

void NodeAllocator::release_slots(const std::vector<int>& slots) {
  if (slots_per_node_ == 1) {
    release(slots);
    return;
  }
  std::vector<int> freed;
  try {
    for (int node : slots) {
      check_node(node);
      const auto unode = static_cast<std::size_t>(node);
      switch (states_[unode]) {
        case NodeState::kBusy:
          if (slot_busy_[unode] <= 0) {
            throw std::logic_error(
                "NodeAllocator: releasing more slots than are busy");
          }
          ++free_slots_;
          if (--slot_busy_[unode] == 0) {
            states_[unode] = NodeState::kFree;
            clear_bit(partial_, node);
            freed.push_back(node);
            --busy_;
            ++free_;
          } else {
            set_bit(partial_, node);
          }
          break;
        case NodeState::kOffline:
          // Failed under the job; drop the occupant record, node stays out.
          if (slot_busy_[unode] > 0) --slot_busy_[unode];
          break;
        case NodeState::kFree:
          throw std::logic_error("NodeAllocator: releasing a free slot");
      }
    }
  } catch (...) {
    index_freed(freed);  // keep the run index in step with states_
    throw;
  }
  index_freed(freed);
  ++stats_.releases;
}

void NodeAllocator::release(const std::vector<int>& nodes) {
  std::vector<int> freed;
  try {
    for (int node : nodes) {
      check_node(node);
      const auto unode = static_cast<std::size_t>(node);
      switch (states_[unode]) {
        case NodeState::kBusy:
          if (slot_busy_[unode] != slots_per_node_) {
            throw std::logic_error(
                "NodeAllocator: whole-node release of a shared node");
          }
          states_[unode] = NodeState::kFree;
          slot_busy_[unode] = 0;
          freed.push_back(node);
          free_slots_ += slots_per_node_;
          --busy_;
          ++free_;
          break;
        case NodeState::kOffline:
          break;  // failed under the job; stays out of the pool
        case NodeState::kFree:
          throw std::logic_error("NodeAllocator: releasing a free node");
      }
    }
  } catch (...) {
    index_freed(freed);  // keep the run index in step with states_
    throw;
  }
  index_freed(freed);
  ++stats_.releases;
}

NodeState NodeAllocator::set_offline(int node) {
  check_node(node);
  const auto unode = static_cast<std::size_t>(node);
  const NodeState prev = states_[unode];
  switch (prev) {
    case NodeState::kFree:
      --free_;
      claim_range(node, 1);
      break;
    case NodeState::kBusy:
      --busy_;
      clear_bit(partial_, node);
      break;
    case NodeState::kOffline: return prev;
  }
  free_slots_ -= slots_per_node_ - slot_busy_[unode];
  states_[unode] = NodeState::kOffline;
  ++offline_;
  return prev;
}

void NodeAllocator::set_online(int node) {
  check_node(node);
  const auto unode = static_cast<std::size_t>(node);
  if (states_[unode] != NodeState::kOffline) return;
  states_[unode] = NodeState::kFree;
  // A repaired node comes back empty even if some victims never released
  // their slots (they were aborted; their records died with them).
  slot_busy_[unode] = 0;
  free_slots_ += slots_per_node_;
  free_range(node, 1);
  --offline_;
  ++free_;
}

NodeState NodeAllocator::state(int node) const {
  check_node(node);
  return states_[static_cast<std::size_t>(node)];
}

void NodeAllocator::check_conservation() const {
  int free = 0, busy = 0, offline = 0, slots = 0, runs = 0;
  int run_start = -1;
  for (int i = 0; i <= total(); ++i) {
    const bool is_free =
        i < total() && states_[static_cast<std::size_t>(i)] == NodeState::kFree;
    if (is_free && run_start < 0) run_start = i;
    if (!is_free && run_start >= 0) {
      // Each run is marked at both ends and listed in its bucket.
      const int length = i - run_start;
      const std::vector<int>& starts = by_length_[bucket_of(run_start, length)];
      if (run_len_[static_cast<std::size_t>(run_start)] != length ||
          run_head_[static_cast<std::size_t>(i - 1)] != run_start ||
          !std::binary_search(starts.begin(), starts.end(), run_start) ||
          !test_bit(lengths_in_use_, length)) {
        throw std::logic_error("NodeAllocator: free-run index out of step");
      }
      ++runs;
      run_start = -1;
    }
    if (i == total()) break;
    const auto ui = static_cast<std::size_t>(i);
    const int occupied = slot_busy_[ui];
    if (occupied < 0 || occupied > slots_per_node_) {
      throw std::logic_error("NodeAllocator: slot occupancy out of range");
    }
    switch (states_[ui]) {
      case NodeState::kFree:
        ++free;
        if (occupied != 0) {
          throw std::logic_error("NodeAllocator: free node holds busy slots");
        }
        break;
      case NodeState::kBusy:
        ++busy;
        if (occupied == 0) {
          throw std::logic_error("NodeAllocator: busy node holds no slots");
        }
        break;
      case NodeState::kOffline:
        // Occupants linger until their (aborted) jobs release — any count
        // in [0, slots_per_node] is legal here.
        ++offline;
        break;
    }
    const bool partial =
        states_[ui] == NodeState::kBusy && occupied < slots_per_node_;
    if (partial != test_bit(partial_, i)) {
      throw std::logic_error("NodeAllocator: partial-node set out of step");
    }
    if (states_[ui] != NodeState::kOffline) slots += slots_per_node_ - occupied;
  }
  if (free != free_ || busy != busy_ || offline != offline_ ||
      free + busy + offline != total()) {
    throw std::logic_error("NodeAllocator: node conservation violated");
  }
  if (slots != free_slots_) {
    throw std::logic_error("NodeAllocator: free-slot count out of step");
  }
  // No stale entries: the buckets hold exactly the runs counted above.
  std::size_t listed = 0;
  for (std::size_t len = 0; len < by_length_.size() / 2; ++len) {
    const std::size_t in_bucket =
        by_length_[2 * len].size() + by_length_[2 * len + 1].size();
    if ((in_bucket > 0) != test_bit(lengths_in_use_, static_cast<int>(len))) {
      throw std::logic_error("NodeAllocator: run-length bitmap out of step");
    }
    listed += in_bucket;
  }
  if (listed != static_cast<std::size_t>(runs)) {
    throw std::logic_error("NodeAllocator: free-run index out of step");
  }
}

std::string NodeAllocator::describe() const {
  std::ostringstream out;
  out << total() << " nodes: " << free_ << " free, " << busy_ << " busy, "
      << offline_ << " offline [";
  for (int i = 0; i < total(); ++i) {
    switch (states_[static_cast<std::size_t>(i)]) {
      case NodeState::kFree: out << '.'; break;
      case NodeState::kBusy:
        // Shared mode: show the occupancy digit instead of a bare '#'.
        if (slots_per_node_ > 1) {
          out << slot_busy_[static_cast<std::size_t>(i)] % 10;
        } else {
          out << '#';
        }
        break;
      case NodeState::kOffline: out << 'x'; break;
    }
  }
  out << ']';
  return out.str();
}

}  // namespace hpcs::batch

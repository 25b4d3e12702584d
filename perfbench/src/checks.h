// Output checks for the benchmark's workloads.  Every check compares the
// simulator's outcomes against something computed apart from it — the
// generated inputs, aggregates recomputed from the per-job outcomes, a
// sweep line over allocations, DAG edge counts, the paper's Table II
// minima — or against a property the method must have.  None compares
// against a stored copy of earlier output.
//
// Each checker returns the list of violations it found (empty = pass).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "batch/queue.h"
#include "batch/replay.h"
#include "batch/scale.h"
#include "exp/runner.h"
#include "util/time.h"
#include "workloads/nas.h"

namespace perfbench {

using hpcs::SimDuration;
using hpcs::SimTime;
using Failures = std::vector<std::string>;

/// What the checker knows about a scale scenario without the simulator:
/// the generated inputs and the partition.
struct ScaleInputs {
  SimDuration cycle = 0;
  double node_noise = 0.0;
  /// Runtimes are the noisy ideal runtime exactly (no checkpoint/fault
  /// segments), so finish times can be bounded.
  bool bounded_runtime = false;
  int slots_per_node = 1;
  std::vector<int> shard_nodes;  // ShardPartition::node_count per shard
  // Per job, indexed by id - 1.
  std::vector<SimTime> arrival;  // submit time before grid alignment
  std::vector<int> width;        // nodes (slots in shared mode) requested
  std::vector<SimDuration> base;       // ideal runtime
  std::vector<std::vector<int>> deps;  // workflow parents (empty otherwise)
};

/// The inputs of a scale scenario, generated apart from the simulator the
/// way it documents its workload: batch::generate_arrivals with max_nodes
/// clamped to the smallest shard, or wf::generate_dag per instance with
/// consecutive ids, instances `spacing` apart.
ScaleInputs scale_inputs(const hpcs::batch::ScaleConfig& cfg);

/// Every job finishes once, arrives on the grid at align_up(submit), starts
/// no earlier, and (bounded_runtime) finishes between align_up(start +
/// base) and align_up(start + base * (1 + node_noise)).
Failures check_scale_jobs(
    const ScaleInputs& in,
    const std::vector<hpcs::batch::ScaleJobOutcome>& jobs);

struct CapacityReport {
  Failures failures;
  /// Dispatch instants at which a shard's running jobs need more distinct
  /// nodes than it has (sum of ceil(width / slots) > nodes): some node is
  /// then shared by two jobs, whatever the placement.
  std::uint64_t colocated = 0;
};

/// Sweep line per shard over [start, finish): no instant holds more nodes
/// (slots) than the shard has.
CapacityReport check_scale_capacity(
    const ScaleInputs& in,
    const std::vector<hpcs::batch::ScaleJobOutcome>& jobs);

/// Makespan and utilization recomputed from the outcomes match the
/// reported values.
Failures check_scale_aggregates(const ScaleInputs& in,
                                const hpcs::batch::ScaleResult& result);

/// Workflow mode: one release message per DAG edge, and no task starts
/// before every parent has finished.
Failures check_scale_workflow(const ScaleInputs& in,
                              const hpcs::batch::ScaleResult& result);

/// Serial and sharded runs of one scenario pinned the same schedule.
Failures check_identical(std::uint64_t serial_checksum,
                         std::uint64_t sharded_checksum);

/// What the checker knows about a replay without the simulator.
struct ReplayInputs {
  SimDuration cycle = 0;
  SimDuration tau = 0;
  int width_cap = 0;  // smallest shard: wider requests are clamped to it
  std::vector<hpcs::batch::QueueConfig> queues;
  std::vector<hpcs::batch::JobSpec> specs;
};

/// Every admitted job runs once after its grid-aligned arrival; a job never
/// preempted finishes exactly at align_up(start + ideal runtime) (the
/// replay runs with node_noise 0); each job sits in the first queue whose
/// admission limits admit it (rejected only when none does); Jain's index
/// recomputed from per-user mean bounded slowdowns matches.
Failures check_replay(const ReplayInputs& in,
                      const hpcs::batch::ReplayResult& result);

/// One NAS instance under both schedulers.
struct NasRow {
  hpcs::workloads::NasInstance instance;
  hpcs::exp::Series std_linux;
  hpcs::exp::Series hpl;
};

/// Every run completes; no run beats its Table II minimum by more than 1%;
/// HPL Var% stays within 3% per instance; HPL's minimum is no worse than
/// standard Linux's per instance (within 0.1%).
Failures check_nas(const std::vector<NasRow>& rows);

/// Both sweeps ran the same runs: app time and scheduler counters equal
/// run by run (the parallel sweep's determinism contract).
Failures check_same_series(const hpcs::exp::Series& a,
                           const hpcs::exp::Series& b);

}  // namespace perfbench

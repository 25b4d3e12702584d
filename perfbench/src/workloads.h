// The benchmark's four workloads and the loop that times them.
//
// A run repeats whole rounds of one workload until --seconds have passed.
// Each round rebuilds the workload's inputs from --seed (timed as setup_s),
// then makes the workload's serial reference calls (wall_s) and the same
// scenario through the parallel path (sharded_wall_s), checking every
// call's outputs.  With tracing on, the run instead reports per-layer
// numbers: spans around each call, extra attribution calls, and the
// workload's layer counters (see README.md for the full map).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Threads of the timed parallel calls; 0 picks the workload's default:
  /// 1 for run_*_sharded (the conservative protocol's own cost; barrier
  /// timings at 2+ threads on a shared host spread too widely to gate) and
  /// 2 for the NAS parallel sweep (1 on a one-CPU host).
  int threads = 0;
  /// Chrome/Perfetto trace file written by a traced run ("" = none).
  std::string trace_out;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few check messages
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // simulated outcomes, for reference
};

const std::vector<std::string>& workload_names();

/// Run one workload as Options says.  Throws std::invalid_argument for an
/// unknown workload name.
Outcome run_benchmark(const Options& options);

/// Feed each checker a corrupted copy of real outcomes and confirm it
/// reports a failure.  Prints one line per case; returns the number of
/// corruptions a checker missed (0 = every check can fail).
int run_self_tests();

}  // namespace perfbench

// hpcsched end-to-end benchmark: the program perfbench/run.py builds and
// runs.
//
//   hpcs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--threads T] [--trace-out FILE]
//   hpcs_perfbench --self-test
//
// Prints the workload's checks and reference outcomes, then as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 0 when the run completed (even with failed checks, which the JSON
// reports), 2 on bad arguments, 1 on an internal error.
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: hpcs_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--threads T] [--trace-out FILE]\n"
               "       hpcs_perfbench --self-test\n"
               "workloads:");
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

void print_result(const perfbench::Outcome& outcome) {
  for (const std::string& note : outcome.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& failure : outcome.failures) {
    std::printf("# FAIL %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool self_test = false;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--self-test") {
        self_test = true;
        continue;
      }
      if (i + 1 >= argc) {
        usage();
        return 2;
      }
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value != "0";
      } else if (arg == "--threads") {
        options.threads = std::stoi(value);
      } else if (arg == "--trace-out") {
        options.trace_out = value;
      } else {
        usage();
        return 2;
      }
    }
  } catch (const std::exception&) {
    usage();
    return 2;
  }
  if (self_test) return perfbench::run_self_tests() == 0 ? 0 : 1;
  if (!have_workload || options.threads < 0 || options.threads > 64 ||
      !(options.seconds > 0.0)) {
    usage();
    return 2;
  }
  try {
    print_result(perfbench::run_benchmark(options));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "hpcs_perfbench: %s\n", e.what());
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpcs_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}

// Self-tests of the output checks: each checker is fed a real outcome
// (which it must pass) and a corrupted copy (which it must fail), so no
// check can silently pass everything.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "batch/replay.h"
#include "batch/scale.h"
#include "batch/workload.h"
#include "checks.h"
#include "cluster/partition.h"
#include "exp/runner.h"
#include "workloads.h"
#include "workloads/nas.h"

namespace perfbench {

namespace batch = hpcs::batch;
using hpcs::kMillisecond;
using hpcs::kSecond;

namespace {

batch::ScaleConfig small_scale() {
  batch::ScaleConfig cfg;
  cfg.nodes = 256;
  cfg.shards = 4;
  cfg.fabric.nodes_per_switch = 16;
  cfg.arrivals.jobs = 3000;
  cfg.arrivals.mean_interarrival = 1 * kMillisecond;
  cfg.arrivals.max_nodes = 16;
  cfg.arrivals.nodes_log_mean = 1.5;
  cfg.arrivals.runtime_typical = 200 * kMillisecond;
  cfg.seed = 3;
  return cfg;
}

batch::ScaleConfig small_workflow() {
  batch::ScaleConfig cfg;
  cfg.nodes = 64;
  cfg.shards = 4;
  cfg.fabric.nodes_per_switch = 16;
  cfg.wf.enabled = true;
  cfg.wf.dag.branches = 4;
  cfg.wf.dag.depth = 2;
  cfg.wf.dag.nodes_typical = 3;
  cfg.wf.instances = 8;
  cfg.wf.spacing = 100 * kMillisecond;
  cfg.seed = 5;
  return cfg;
}

/// Prints one line per case and counts the cases a checker got wrong.
class Cases {
 public:
  void expect(const std::string& name, const Failures& clean,
              const Failures& corrupted) {
    const bool ok = clean.empty() && !corrupted.empty();
    std::printf("%s %-48s clean: %s, corrupted: %s\n", ok ? "ok  " : "FAIL",
                name.c_str(), clean.empty() ? "pass" : clean.front().c_str(),
                corrupted.empty() ? "MISSED" : corrupted.front().c_str());
    if (!ok) ++missed_;
  }
  int missed() const { return missed_; }

 private:
  int missed_ = 0;
};

/// Move jobs onto shard 0 at the start of its first job until that instant
/// holds more nodes than the shard has.
void overfill_shard(const ScaleInputs& in,
                    std::vector<batch::ScaleJobOutcome>& jobs) {
  SimTime at = ~SimTime{0};
  for (const batch::ScaleJobOutcome& o : jobs) {
    if (o.ran_shard == 0) at = std::min(at, o.start);
  }
  std::int64_t used = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].ran_shard == 0 && jobs[i].start <= at && at < jobs[i].finish) {
      used += in.width[i];
    }
  }
  const std::int64_t cap =
      static_cast<std::int64_t>(in.shard_nodes[0]) * in.slots_per_node;
  for (std::size_t i = 0; i < jobs.size() && used <= cap; ++i) {
    if (jobs[i].ran_shard == 0) continue;
    jobs[i].ran_shard = 0;
    jobs[i].start = at;
    jobs[i].finish = at + 1;
    used += in.width[i];
  }
}

}  // namespace

int run_self_tests() {
  Cases cases;

  const batch::ScaleConfig scale_cfg = small_scale();
  const ScaleInputs scale_in = scale_inputs(scale_cfg);
  const batch::ScaleResult serial = batch::run_scale_serial(scale_cfg);
  const batch::ScaleResult sharded = batch::run_scale_sharded(scale_cfg, 2);

  {
    std::vector<batch::ScaleJobOutcome> bad = serial.jobs;
    bad[bad.size() / 2].start = bad[bad.size() / 2].arrival - 1;
    cases.expect("scale: start before arrival",
                 check_scale_jobs(scale_in, serial.jobs),
                 check_scale_jobs(scale_in, bad));
  }
  {
    std::vector<batch::ScaleJobOutcome> bad = serial.jobs;
    overfill_shard(scale_in, bad);
    cases.expect("scale: over-full shard instant",
                 check_scale_capacity(scale_in, serial.jobs).failures,
                 check_scale_capacity(scale_in, bad).failures);
  }
  {
    std::vector<batch::ScaleJobOutcome> bad = serial.jobs;
    bad[7].finish += 2 * scale_cfg.cycle +
                     static_cast<SimDuration>(static_cast<double>(
                         scale_in.base[7]) * scale_cfg.node_noise);
    cases.expect("scale: finish past the noisy runtime",
                 check_scale_jobs(scale_in, serial.jobs),
                 check_scale_jobs(scale_in, bad));
  }
  {
    batch::ScaleResult bad = serial;
    bad.makespan += 1;
    cases.expect("scale: makespan off the outcomes",
                 check_scale_aggregates(scale_in, serial),
                 check_scale_aggregates(scale_in, bad));
  }
  {
    batch::ScaleResult bad = serial;
    bad.utilization *= 1.0 + 1e-6;
    cases.expect("scale: utilization off the outcomes",
                 check_scale_aggregates(scale_in, serial),
                 check_scale_aggregates(scale_in, bad));
  }
  cases.expect("scale: flipped sharded checksum",
               check_identical(serial.checksum(), sharded.checksum()),
               check_identical(serial.checksum(), sharded.checksum() ^ 1));

  {
    const batch::ScaleConfig wf_cfg = small_workflow();
    const ScaleInputs wf_in = scale_inputs(wf_cfg);
    const batch::ScaleResult wf = batch::run_scale_serial(wf_cfg);
    batch::ScaleResult bad = wf;
    bad.dep_releases -= 1;
    cases.expect("workflow: dropped dependency release",
                 check_scale_workflow(wf_in, wf),
                 check_scale_workflow(wf_in, bad));
    // The sink (last task of instance 1) starts as its parents finish.
    const std::size_t sink = static_cast<std::size_t>(
        wf_cfg.wf.dag.branches * wf_cfg.wf.dag.depth + 1);
    bad = wf;
    bad.jobs[sink].start =
        bad.jobs[static_cast<std::size_t>(wf_in.deps[sink][0] - 1)].finish -
        1;
    cases.expect("workflow: task starts before a parent finishes",
                 check_scale_workflow(wf_in, wf),
                 check_scale_workflow(wf_in, bad));
  }

  {
    // The replay checker: a never-preempted job finishing one cycle late.
    batch::ReplayConfig cfg;
    cfg.nodes = 64;
    cfg.shards = 2;
    cfg.fabric.nodes_per_switch = 16;
    batch::QueueConfig express;
    express.name = "express";
    express.priority = 10;
    express.max_nodes = 4;
    batch::QueueConfig workq;
    workq.name = "workq";
    cfg.queues = {express, workq};
    batch::ArrivalConfig arrivals;
    arrivals.jobs = 400;
    arrivals.mean_interarrival = 20 * kSecond;
    arrivals.max_nodes = 32;
    arrivals.nodes_log_mean = 1.2;
    arrivals.runtime_typical = 300 * kSecond;
    arrivals.grain = 10 * kSecond;
    arrivals.users = 4;
    ReplayInputs in;
    in.cycle = cfg.cycle;
    in.tau = cfg.tau;
    in.width_cap = 32;
    in.queues = cfg.queues;
    in.specs = batch::generate_arrivals(arrivals, 9);
    const batch::ReplayResult replay = batch::run_replay_serial(cfg, in.specs);
    batch::ReplayResult bad = replay;
    bad.jobs[0].finish += cfg.cycle;
    cases.expect("replay: finish off the exact runtime",
                 check_replay(in, replay), check_replay(in, bad));
    bad = replay;
    for (batch::ReplayJobOutcome& o : bad.jobs) {
      if (o.queue == 1) {
        o.queue = 0;  // express admits at most 4 nodes
        break;
      }
    }
    cases.expect("replay: queue outside its admission limits",
                 check_replay(in, replay), check_replay(in, bad));
    bad = replay;
    bad.user_fairness -= 1e-6;
    cases.expect("replay: Jain index off the slowdowns",
                 check_replay(in, replay), check_replay(in, bad));
  }

  {
    const hpcs::workloads::NasInstance inst{hpcs::workloads::NasBenchmark::kIS,
                                            hpcs::workloads::NasClass::kA, 8};
    hpcs::exp::RunConfig config;
    config.program = hpcs::workloads::build_nas_program(inst);
    config.mpi.nranks = inst.nranks;
    NasRow row;
    row.instance = inst;
    row.std_linux = hpcs::exp::run_series(config, 2, 1);
    config.setup = hpcs::exp::Setup::kHpl;
    row.hpl = hpcs::exp::run_series(config, 2, 1);
    NasRow bad = row;
    bad.hpl.runs[0].app_seconds =
        0.5 * hpcs::workloads::nas_reference_seconds(inst.bench, inst.cls);
    cases.expect("nas: run faster than its Table II minimum",
                 check_nas({row}), check_nas({bad}));
    bad = row;
    bad.hpl.runs[1].app_seconds = bad.hpl.runs[0].app_seconds * 1.05;
    cases.expect("nas: HPL Var% above the limit", check_nas({row}),
                 check_nas({bad}));
    bad = row;
    for (hpcs::exp::RunResult& run : bad.hpl.runs) run.app_seconds *= 1.01;
    cases.expect("nas: HPL minimum above std-linux's", check_nas({row}),
                 check_nas({bad}));
    bad = row;
    bad.std_linux.runs[1].completed = false;
    cases.expect("nas: a run that did not complete", check_nas({row}),
                 check_nas({bad}));
    hpcs::exp::Series other = row.hpl;
    other.runs[1].cpu_migrations += 1;
    cases.expect("nas: parallel sweep differs from serial",
                 check_same_series(row.hpl, row.hpl),
                 check_same_series(row.hpl, other));
  }

  std::printf("self-test: %d corruption(s) missed\n", cases.missed());
  return cases.missed();
}

}  // namespace perfbench

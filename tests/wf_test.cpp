// Tests for the workflow layer: the hpcsched-style control-file parser, the
// WorkflowDag model (cycles, ready set, bottom levels), the seeded DAG
// generator, the BatchScheduler dependency machinery (held jobs, EASY-CP
// ordering, mid-DAG faults), and the sharded scale scenario's workflow
// mode (golden-pinned serial-vs-sharded checksums).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "batch/scale.h"
#include "batch/scheduler.h"
#include "batch/workflow.h"
#include "cluster/cluster.h"
#include "exp/workflow.h"
#include "sim/engine.h"
#include "wf/control.h"
#include "wf/dag.h"
#include "wf/generator.h"

namespace hpcs {
namespace {

using batch::BatchConfig;
using batch::BatchPolicy;
using batch::BatchScheduler;
using batch::JobSpec;
using batch::JobState;

cluster::ClusterConfig quiet_cluster(int nodes) {
  cluster::ClusterConfig config;
  config.nodes = nodes;
  config.spawn_daemons = false;
  config.fabric = net::FabricConfig{};
  return config;
}

BatchConfig deterministic_config(BatchPolicy policy) {
  BatchConfig config;
  config.policy = policy;
  config.mpi.run_speed_sigma = 0.0;
  config.mpi.compute_jitter = 0.0;
  return config;
}

/// A deterministic workflow task: `nodes` wide, iterations x grain of work,
/// conservative 2x estimate, explicit dependencies.
wf::TaskSpec task(int id, int nodes, int iterations,
                  std::vector<int> deps = {}) {
  wf::TaskSpec t;
  t.id = id;
  t.nodes = nodes;
  t.ranks_per_node = 2;
  t.iterations = iterations;
  t.grain = 2 * kMillisecond;
  t.estimate = 2 * wf::task_ideal_runtime(t);
  t.deps = std::move(deps);
  return t;
}

// The README's example campaign: prep feeds two solvers, reduce joins them.
const char* const kControlExample =
    "# stage campaign: prep feeds two solvers, reduce joins them\n"
    "prep.dat :\n"
    "\tgen --out prep.dat nodes=1 iters=4 grain=2ms\n"
    "solve_a.dat : prep.dat\n"
    "\tsolver --in prep.dat nodes=2 iters=12 grain=2ms est=3x\n"
    "solve_b.dat : prep.dat\n"
    "\tsolver --in prep.dat nodes=2 iters=6 grain=2ms\n"
    "report.txt : solve_a.dat solve_b.dat\n"
    "\treduce --out report.txt nodes=1 iters=2 grain=2ms\n";

// --- control-file parsing ----------------------------------------------------

TEST(ControlFileTest, ParsesRulesCommandsAndComments) {
  const wf::ControlFile file = wf::parse_control(kControlExample);
  ASSERT_EQ(file.rules.size(), 4u);
  EXPECT_EQ(file.rules[0].results, std::vector<std::string>{"prep.dat"});
  EXPECT_TRUE(file.rules[0].deps.empty());
  ASSERT_EQ(file.rules[0].commands.size(), 1u);
  EXPECT_EQ(file.rules[0].commands[0],
            "gen --out prep.dat nodes=1 iters=4 grain=2ms");
  EXPECT_EQ(file.rules[3].deps,
            (std::vector<std::string>{"solve_a.dat", "solve_b.dat"}));
  EXPECT_EQ(file.rules[1].line, 4);  // 1-based, comments/blank lines count
}

TEST(ControlFileTest, ErrorsCarryLineNumbers) {
  try {
    wf::parse_control("\tcmd before any rule\n");
    FAIL() << "command before a rule must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }
  try {
    wf::parse_control("a :\n\tcmd\n\n: missing results\n\tcmd\n");
    FAIL() << "a rule without results must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(wf::parse_control("a :\n# no commands follow\n"),
               std::invalid_argument);
}

TEST(ControlFileTest, AnnotationsMapToTaskSpecs) {
  const auto tasks = wf::parse_control_tasks(kControlExample);
  ASSERT_EQ(tasks.size(), 4u);
  // Rule order is job-id order; deps resolve result name -> producing job.
  EXPECT_EQ(tasks[0].name, "prep.dat");
  EXPECT_EQ(tasks[0].nodes, 1);
  EXPECT_EQ(tasks[0].iterations, 4);
  EXPECT_EQ(tasks[0].grain, 2 * kMillisecond);
  EXPECT_EQ(tasks[1].deps, std::vector<int>{1});
  EXPECT_EQ(tasks[3].deps, (std::vector<int>{2, 3}));
  // est=3x scales the ideal runtime; the default factor is 2x.
  EXPECT_EQ(tasks[1].estimate, 3 * wf::task_ideal_runtime(tasks[1]));
  EXPECT_EQ(tasks[2].estimate, 2 * wf::task_ideal_runtime(tasks[2]));
}

TEST(ControlFileTest, AnnotationsAggregateAcrossCommandLines) {
  const auto tasks = wf::parse_control_tasks(
      "out :\n"
      "\tstep1 nodes=2 iters=5 grain=3ms\n"
      "\tstep2 nodes=4 iters=7\n"
      "\tstep3\n");
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].nodes, 4);  // width = max over lines
  // iterations sum over lines; an unannotated line contributes the default.
  wf::ControlDefaults defaults;
  EXPECT_EQ(tasks[0].iterations, 5 + 7 + defaults.iterations);
  EXPECT_EQ(tasks[0].grain, 3 * kMillisecond);  // first line that sets it
}

TEST(ControlFileTest, RejectsBadGraphs) {
  // A dependency no rule produces.
  EXPECT_THROW(wf::parse_control_tasks("a : ghost\n\tcmd\n"),
               std::invalid_argument);
  // Two rules producing the same result.
  EXPECT_THROW(wf::parse_control_tasks("a :\n\tcmd\nb a :\n\tcmd\n"),
               std::invalid_argument);
  // A cycle through forward references (forward deps alone are legal).
  EXPECT_THROW(wf::parse_control_tasks("a : b\n\tcmd\nb : a\n\tcmd\n"),
               std::invalid_argument);
  const auto forward =
      wf::parse_control_tasks("a : b\n\tcmd\nb :\n\tcmd\n");
  EXPECT_EQ(forward[0].deps, std::vector<int>{2});
}

TEST(ControlFileTest, ParseDurationSuffixes) {
  EXPECT_EQ(wf::parse_duration("5ms"), 5 * kMillisecond);
  EXPECT_EQ(wf::parse_duration("2s"), 2 * kSecond);
  EXPECT_EQ(wf::parse_duration("750us"), 750 * kMicrosecond);
  EXPECT_EQ(wf::parse_duration("40ns"), SimDuration{40});
  EXPECT_EQ(wf::parse_duration("123"), SimDuration{123});
  EXPECT_THROW(wf::parse_duration("5parsecs"), std::invalid_argument);
  EXPECT_THROW(wf::parse_duration(""), std::invalid_argument);
}

// --- WorkflowDag -------------------------------------------------------------

TEST(WorkflowDagTest, BottomLevelsAndIncrementalReadySet) {
  // Diamond: 1 -> {2 heavy, 3 light} -> 4.
  wf::WorkflowDag dag;
  dag.add_task(1, 10 * kMillisecond, {});
  dag.add_task(2, 40 * kMillisecond, {1});
  dag.add_task(3, 5 * kMillisecond, {1});
  dag.add_task(4, 20 * kMillisecond, {2, 3});
  dag.finalize();
  EXPECT_EQ(dag.size(), 4u);
  EXPECT_EQ(dag.edge_count(), 4u);
  EXPECT_EQ(dag.bottom_level(4), 20 * kMillisecond);
  EXPECT_EQ(dag.bottom_level(2), 60 * kMillisecond);
  EXPECT_EQ(dag.bottom_level(3), 25 * kMillisecond);
  EXPECT_EQ(dag.bottom_level(1), 70 * kMillisecond);
  EXPECT_EQ(dag.critical_path(), 70 * kMillisecond);  // 1 -> 2 -> 4
  EXPECT_EQ(dag.remaining_critical_path(), 70 * kMillisecond);
  EXPECT_EQ(dag.ready(), std::vector<int>{1});
  EXPECT_FALSE(dag.is_ready(2));

  EXPECT_EQ(dag.mark_finished(1), (std::vector<int>{2, 3}));
  EXPECT_EQ(dag.remaining_critical_path(), 60 * kMillisecond);
  EXPECT_TRUE(dag.mark_finished(3).empty());  // 4 still waits on 2
  EXPECT_EQ(dag.mark_finished(2), std::vector<int>{4});
  EXPECT_EQ(dag.remaining_critical_path(), 20 * kMillisecond);
  EXPECT_TRUE(dag.mark_finished(4).empty());
  EXPECT_EQ(dag.finished_count(), 4u);
  EXPECT_EQ(dag.remaining_critical_path(), SimDuration{0});
}

TEST(WorkflowDagTest, DescendantsAndValidation) {
  wf::WorkflowDag dag;
  dag.add_task(1, kMillisecond, {});
  dag.add_task(2, kMillisecond, {1});
  dag.add_task(3, kMillisecond, {2});
  dag.add_task(4, kMillisecond, {1});
  dag.finalize();
  EXPECT_EQ(dag.descendants(1), (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(dag.descendants(2), std::vector<int>{3});
  EXPECT_TRUE(dag.descendants(3).empty());
  EXPECT_EQ(dag.dependents(1), (std::vector<int>{2, 4}));

  // Completions must respect the graph.
  EXPECT_THROW(dag.mark_finished(2), std::logic_error);
  dag.mark_finished(1);
  EXPECT_THROW(dag.mark_finished(1), std::logic_error);

  wf::WorkflowDag dup;
  dup.add_task(1, kMillisecond, {});
  EXPECT_THROW(dup.add_task(1, kMillisecond, {}), std::invalid_argument);
  EXPECT_THROW(dup.add_task(2, kMillisecond, {2}), std::invalid_argument);

  wf::WorkflowDag cyclic;
  cyclic.add_task(1, kMillisecond, {2});
  cyclic.add_task(2, kMillisecond, {1});
  EXPECT_THROW(cyclic.finalize(), std::invalid_argument);

  wf::WorkflowDag unknown;
  unknown.add_task(1, kMillisecond, {99});
  EXPECT_THROW(unknown.finalize(), std::invalid_argument);
}

// --- generator ---------------------------------------------------------------

TEST(DagGeneratorTest, BitIdenticalPerSeedAndShaped) {
  wf::DagGenConfig config;
  config.shape = wf::DagShape::kDiamond;
  config.branches = 3;
  config.depth = 2;
  const auto a = wf::generate_dag(config, 11);
  const auto b = wf::generate_dag(config, 11);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 1u + 3u * 2u + 1u);  // source + chains + sink
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_EQ(a[i].iterations, b[i].iterations);
    EXPECT_EQ(a[i].deps, b[i].deps);
    EXPECT_GE(a[i].nodes, 1);
    EXPECT_LE(a[i].nodes, config.max_nodes);
    EXPECT_GE(a[i].iterations, 1);
    EXPECT_GE(a[i].estimate, wf::task_ideal_runtime(a[i]));
  }
  const auto c = wf::generate_dag(config, 12);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= a[i].nodes != c[i].nodes || a[i].iterations != c[i].iterations;
  }
  EXPECT_TRUE(any_diff) << "different seeds must give different DAGs";

  // Source has no deps, the sink joins every chain tail, and the whole
  // task list forms a valid acyclic graph.
  EXPECT_TRUE(a.front().deps.empty());
  EXPECT_EQ(a.back().deps.size(), 3u);
  const wf::WorkflowDag dag = wf::dag_from_tasks(a);
  EXPECT_EQ(dag.ready(), std::vector<int>{a.front().id});
  EXPECT_GE(dag.critical_path(),
            wf::task_ideal_runtime(a.front()) +
                wf::task_ideal_runtime(a.back()));
}

TEST(DagGeneratorTest, ShapesAndFirstId) {
  wf::DagGenConfig chain;
  chain.shape = wf::DagShape::kChain;
  chain.depth = 4;
  chain.first_id = 100;
  const auto tasks = wf::generate_dag(chain, 3);
  ASSERT_EQ(tasks.size(), 4u);
  EXPECT_EQ(tasks[0].id, 100);
  EXPECT_TRUE(tasks[0].deps.empty());
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].deps, std::vector<int>{tasks[i - 1].id});
  }

  wf::DagGenConfig fan;
  fan.shape = wf::DagShape::kFanOutIn;
  fan.branches = 5;
  const auto leaves = wf::generate_dag(fan, 3);
  ASSERT_EQ(leaves.size(), 7u);  // source + 5 leaves + sink
  for (std::size_t i = 1; i + 1 < leaves.size(); ++i) {
    EXPECT_EQ(leaves[i].deps, std::vector<int>{leaves[0].id});
  }
  EXPECT_EQ(leaves.back().deps.size(), 5u);

  wf::DagGenConfig bad;
  bad.branches = 0;
  EXPECT_THROW(wf::generate_dag(bad, 1), std::invalid_argument);
}

// --- scheduler: dependency machinery ----------------------------------------

TEST(WorkflowSchedulerTest, HeldJobsEnterQueueOnlyWhenReady) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(4));
  BatchScheduler sched(cluster, deterministic_config(BatchPolicy::kEasy));
  // Chain 1 -> 2 -> 3, submitted as a unit at t = 0.
  sched.submit_all(batch::jobs_from_tasks(
      {task(1, 2, 10), task(2, 2, 5, {1}), task(3, 2, 5, {2})}));
  engine.run_until(kMillisecond);
  EXPECT_EQ(sched.held_count(), 2);  // 2 and 3 wait on dependencies
  EXPECT_TRUE(sched.workflow_mode());
  engine.run_until(10 * kSecond);
  ASSERT_TRUE(sched.all_done());
  const auto& records = sched.records();
  ASSERT_EQ(records.size(), 3u);
  for (const auto& r : records) EXPECT_EQ(r.state, JobState::kFinished);
  // A job becomes ready the instant its last dependency finishes, and its
  // dependency stall is exactly that gap.
  EXPECT_EQ(records[0].ready, records[0].spec.arrival);
  EXPECT_EQ(records[1].ready, records[0].finish);
  EXPECT_EQ(records[2].ready, records[1].finish);
  EXPECT_GE(records[1].start, records[1].ready);
  EXPECT_EQ(records[1].dep_stall(), records[0].finish);
  EXPECT_EQ(records[1].wait(), records[1].dep_stall() +
                                   records[1].queue_wait());

  const batch::BatchMetrics m = sched.metrics();
  EXPECT_EQ(m.finished, 3);
  EXPECT_GT(m.workflow_makespan_s, 0.0);
  EXPECT_GT(m.critical_path_s, 0.0);
  EXPECT_GE(m.cp_stretch, 1.0);
  EXPECT_GT(m.mean_dep_stall_s, 0.0);
  EXPECT_GE(m.max_dep_stall_s, m.mean_dep_stall_s);
}

TEST(WorkflowSchedulerTest, EasyCpRunsHeaviestBranchFirst) {
  // Diamond on a 2-node cluster: after the source, exactly one 2-node
  // branch fits at a time.  Ids are ordered light -> heavy, so plain EASY
  // (arrival then id) would run the light branch first; EASY-CP must pick
  // the branch gating the heaviest remaining path.
  const std::vector<wf::TaskSpec> tasks = {
      task(1, 1, 2),           // source
      task(2, 2, 5, {1}),      // light branch
      task(3, 2, 25, {1}),     // medium branch
      task(4, 2, 50, {1}),     // heavy branch
      task(5, 1, 2, {2, 3, 4})  // sink
  };
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(2));
  BatchScheduler sched(cluster, deterministic_config(BatchPolicy::kEasyCp));
  sched.submit_all(batch::jobs_from_tasks(tasks));
  engine.run_until(10 * kSecond);
  ASSERT_TRUE(sched.all_done());
  const auto& records = sched.records();
  // Golden ordering: heavy (id 4) before medium (id 3) before light (id 2).
  EXPECT_LT(records[3].start, records[2].start);
  EXPECT_LT(records[2].start, records[1].start);

  // The dag the scheduler built agrees with the standalone model.
  EXPECT_EQ(sched.dag().critical_path(),
            wf::task_ideal_runtime(tasks[0]) +
                wf::task_ideal_runtime(tasks[3]) +
                wf::task_ideal_runtime(tasks[4]));

  // Plain EASY on the same workload runs them in id order instead.
  sim::Engine engine2;
  cluster::Cluster cluster2(engine2, quiet_cluster(2));
  BatchScheduler easy(cluster2, deterministic_config(BatchPolicy::kEasy));
  easy.submit_all(batch::jobs_from_tasks(tasks));
  engine2.run_until(10 * kSecond);
  ASSERT_TRUE(easy.all_done());
  EXPECT_LT(easy.records()[1].start, easy.records()[2].start);
  EXPECT_LT(easy.records()[2].start, easy.records()[3].start);
}

TEST(WorkflowSchedulerTest, SjfTieBreaksByEstimateArrivalId) {
  // Same estimate + same arrival: SJF must fall back to id order no matter
  // the submission order (the regression the comparator chain pins).
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(2));
  BatchScheduler sched(cluster, deterministic_config(BatchPolicy::kSjf));
  std::vector<JobSpec> jobs;
  for (const int id : {3, 1, 2}) {
    JobSpec spec;
    spec.id = id;
    spec.arrival = 0;
    spec.nodes = 2;
    spec.ranks_per_node = 2;
    spec.iterations = 5;
    spec.grain = 2 * kMillisecond;
    spec.estimate = 100 * kMillisecond;  // identical estimates
    jobs.push_back(spec);
  }
  // A genuinely shorter job must still jump ahead of every tied one.
  JobSpec shorter = jobs[0];
  shorter.id = 4;
  shorter.estimate = 50 * kMillisecond;
  jobs.push_back(shorter);
  sched.submit_all(jobs);
  engine.run_until(10 * kSecond);
  ASSERT_TRUE(sched.all_done());
  const auto& records = sched.records();  // submit order: 3, 1, 2, 4
  const auto start_of = [&](int id) {
    for (const auto& r : records) {
      if (r.spec.id == id) return r.start;
    }
    ADD_FAILURE() << "job " << id << " not found";
    return batch::kNoPromise;
  };
  EXPECT_LT(start_of(4), start_of(1));
  EXPECT_LT(start_of(1), start_of(2));
  EXPECT_LT(start_of(2), start_of(3));
}

TEST(WorkflowSchedulerTest, FailedDependencyCancelsDescendants) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(2));
  BatchConfig config = deterministic_config(BatchPolicy::kEasy);
  config.resubmit_failed = false;
  // Node 0 dies under the source and never comes back; the chain behind it
  // can never run.
  config.node_faults.push_back({5 * kMillisecond, 0, false});
  BatchScheduler sched(cluster, config);
  sched.submit_all(batch::jobs_from_tasks(
      {task(1, 2, 50), task(2, 1, 5, {1}), task(3, 1, 5, {2})}));
  engine.run_until(10 * kSecond);
  ASSERT_TRUE(sched.all_done());
  const auto& records = sched.records();
  EXPECT_EQ(records[0].state, JobState::kFailed);
  EXPECT_EQ(records[1].state, JobState::kCanceled);
  EXPECT_EQ(records[2].state, JobState::kCanceled);
  EXPECT_EQ(sched.held_count(), 0);
  EXPECT_EQ(sched.metrics().canceled, 2);
  EXPECT_EQ(sched.metrics().failed, 1);
}

TEST(WorkflowSchedulerTest, MidDagFaultRerunsJobAndKeepsDownstreamHeld) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, quiet_cluster(2));
  BatchConfig config = deterministic_config(BatchPolicy::kEasy);
  // The source loses a node mid-run and is resubmitted; its dependent must
  // stay held through the whole rerun.
  config.node_faults.push_back({10 * kMillisecond, 1, false});
  config.node_faults.push_back({30 * kMillisecond, 1, true});
  BatchScheduler sched(cluster, config);
  sched.submit_all(
      batch::jobs_from_tasks({task(1, 2, 10), task(2, 2, 5, {1})}));
  engine.run_until(20 * kMillisecond);
  EXPECT_EQ(sched.held_count(), 1) << "dependent held across the rerun";
  engine.run_until(10 * kSecond);
  ASSERT_TRUE(sched.all_done());
  const auto& records = sched.records();
  EXPECT_EQ(records[0].state, JobState::kFinished);
  EXPECT_EQ(records[0].resubmits, 1);
  EXPECT_EQ(records[1].state, JobState::kFinished);
  // The dependent became ready exactly when the *successful* rerun
  // finished — after the repair, with the whole outage inside its stall.
  EXPECT_EQ(records[1].ready, records[0].finish);
  EXPECT_GE(records[1].ready, 30 * kMillisecond);
  EXPECT_EQ(records[1].dep_stall(), records[0].finish);
  EXPECT_EQ(sched.node_failures(), 1u);
  EXPECT_EQ(sched.metrics().canceled, 0);
}

TEST(WorkflowSchedulerTest, CampaignDrivenRunIsSeedDeterministic) {
  // A seeded fault campaign with repairs over a fan-out workflow: the run
  // must drain, and replaying the same seed must reproduce every record
  // bit-for-bit (start, finish, ready, resubmits).
  const auto run = [](std::uint64_t seed) {
    sim::Engine engine;
    cluster::Cluster cluster(engine, quiet_cluster(4));
    BatchConfig config = deterministic_config(BatchPolicy::kEasyCp);
    config.campaign.nodes = 4;
    config.campaign.node_mtbf = 2 * kSecond;
    config.campaign.horizon = 4 * kSecond;
    config.campaign_repair = 50 * kMillisecond;
    config.seed = seed;
    BatchScheduler sched(cluster, config);
    wf::DagGenConfig gen;
    gen.shape = wf::DagShape::kFanOutIn;
    gen.branches = 6;
    gen.nodes_typical = 2;
    gen.max_nodes = 3;
    gen.iters_typical = 40;
    sched.submit_all(batch::jobs_from_generated(gen, seed));
    engine.run_until(60 * kSecond);
    EXPECT_TRUE(sched.all_done());
    return std::make_pair(sched.records(), sched.metrics());
  };
  const auto [a, ma] = run(9);
  const auto [b, mb] = run(9);
  ASSERT_EQ(a.size(), b.size());
  int reruns = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].state, b[i].state) << "job " << a[i].spec.id;
    EXPECT_EQ(a[i].start, b[i].start) << "job " << a[i].spec.id;
    EXPECT_EQ(a[i].finish, b[i].finish) << "job " << a[i].spec.id;
    EXPECT_EQ(a[i].ready, b[i].ready) << "job " << a[i].spec.id;
    EXPECT_EQ(a[i].resubmits, b[i].resubmits) << "job " << a[i].spec.id;
    reruns += a[i].resubmits;
  }
  EXPECT_DOUBLE_EQ(ma.workflow_makespan_s, mb.workflow_makespan_s);
  EXPECT_DOUBLE_EQ(ma.cp_stretch, mb.cp_stretch);
  // The campaign is dense enough to actually exercise the rerun path.
  EXPECT_GT(reruns + ma.failed + ma.canceled, 0)
      << "campaign never hit the workflow; tighten node_mtbf";
}

// --- exp runner --------------------------------------------------------------

TEST(WorkflowRunnerTest, RunsControlFileCampaign) {
  exp::WorkflowRunConfig config;
  config.nodes = 4;
  config.batch = deterministic_config(BatchPolicy::kEasyCp);
  config.control = kControlExample;
  const exp::RunResult r = exp::run_workflow_once(config, 3);
  EXPECT_TRUE(r.completed) << r.error;
  EXPECT_GT(r.workflow_makespan_seconds, 0.0);
  EXPECT_GE(r.workflow_cp_stretch, 1.0);
  // Same seed, same schedule.
  const exp::RunResult again = exp::run_workflow_once(config, 3);
  EXPECT_DOUBLE_EQ(r.workflow_makespan_seconds,
                   again.workflow_makespan_seconds);
  EXPECT_DOUBLE_EQ(r.workflow_cp_stretch, again.workflow_cp_stretch);
}

// --- sharded scale scenario --------------------------------------------------

batch::ScaleConfig scale_workflow_config() {
  batch::ScaleConfig config;
  config.nodes = 64;
  config.shards = 4;
  config.fabric.nodes_per_switch = 16;
  config.seed = 5;
  config.wf.enabled = true;
  config.wf.dag.shape = wf::DagShape::kDiamond;
  config.wf.dag.branches = 4;
  config.wf.dag.depth = 2;
  config.wf.dag.nodes_typical = 3;
  config.wf.dag.max_nodes = 8;
  config.wf.instances = 4;
  config.wf.spacing = 100 * kMillisecond;
  return config;
}

TEST(ClusterScaleWorkflowTest, SerialMatchesShardedAtEveryThreadCount) {
  const batch::ScaleConfig config = scale_workflow_config();
  const batch::ScaleResult serial = batch::run_scale_serial(config);
  ASSERT_EQ(serial.jobs.size(), 4u * (1u + 4u * 2u + 1u));
  EXPECT_GT(serial.dep_releases, 0u);
  EXPECT_GT(serial.wf_makespan_s, 0.0);
  EXPECT_GE(serial.wf_cp_stretch, 1.0);
  EXPECT_GT(serial.wf_dep_stall_s, 0.0);
  for (const int threads : {1, 2, 4}) {
    const batch::ScaleResult sharded =
        batch::run_scale_sharded(config, threads);
    EXPECT_EQ(sharded.checksum(), serial.checksum())
        << "sharded schedule diverged at " << threads << " threads";
    EXPECT_EQ(sharded.dep_releases, serial.dep_releases);
    EXPECT_DOUBLE_EQ(sharded.wf_makespan_s, serial.wf_makespan_s);
    EXPECT_EQ(sharded.capacity_updates, serial.capacity_updates);
    EXPECT_EQ(sharded.gossip_messages, serial.gossip_messages);
    EXPECT_EQ(sharded.events, serial.events);
  }
  // Golden checksum: pins the workflow schedule bit-for-bit across builds.
  // Regenerate by printing serial.checksum() if the scenario is *meant* to
  // change.
  EXPECT_EQ(serial.checksum(), 0x56bb590fe475eddaull);
}

TEST(ClusterScaleWorkflowTest, LegacyArrivalPathIsUntouched) {
  // The workflow fields must stay inert when wf.enabled is false: same
  // scenario as the committed cluster-scale goldens, zero workflow output.
  batch::ScaleConfig config;
  config.nodes = 64;
  config.shards = 4;
  config.fabric.nodes_per_switch = 16;
  config.arrivals.jobs = 200;
  config.seed = 5;
  const batch::ScaleResult serial = batch::run_scale_serial(config);
  EXPECT_EQ(serial.dep_releases, 0u);
  EXPECT_EQ(serial.wf_makespan_s, 0.0);
  EXPECT_EQ(serial.wf_cp_stretch, 0.0);
  const batch::ScaleResult sharded = batch::run_scale_sharded(config, 2);
  EXPECT_EQ(sharded.checksum(), serial.checksum());
}

}  // namespace
}  // namespace hpcs

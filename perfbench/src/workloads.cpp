#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "batch/allocator.h"
#include "batch/queue.h"
#include "batch/replay.h"
#include "batch/scale.h"
#include "batch/workload.h"
#include "checks.h"
#include "cluster/partition.h"
#include "exp/runner.h"
#include "trace.h"
#include "wf/generator.h"
#include "workloads/nas.h"

namespace perfbench {

namespace batch = hpcs::batch;
namespace exp = hpcs::exp;
namespace wl = hpcs::workloads;
using hpcs::kMillisecond;
using hpcs::kSecond;

namespace {

// --- metric tables -----------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"sharded_wall_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Every per-layer metric, reported by every traced run; a layer the
/// workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.rounds", "count"},
    {"sim.events_per_round", "count"},
    {"sim.sync_s", "s"},
    {"sim.speedup", "ratio"},
    {"sim.cross_shard_msgs", "count"},
    {"batch.gossip_msgs", "count"},
    {"batch.gossip_share", "ratio"},
    {"batch.forwards", "count"},
    {"batch.preemptions", "count"},
    {"batch.alloc.ops", "count"},
    {"batch.alloc.ns_per_op", "ns"},
    {"batch.alloc.fragmented", "count"},
    {"batch.policy.fairshare_s", "s"},
    {"batch.policy.preempt_s", "s"},
    {"batch.addon.ckpt_s", "s"},
    {"batch.addon.share_s", "s"},
    {"batch.addon.wf_s", "s"},
    {"ckpt.writes", "count"},
    {"fault.failures_hit", "count"},
    {"wf.dep_releases", "count"},
    {"kernel.std.context_switches", "count"},
    {"kernel.hpl.context_switches", "count"},
    {"kernel.std.migrations", "count"},
    {"kernel.hpl.migrations", "count"},
    {"exp.std.host_s", "s"},
    {"exp.hpl.host_s", "s"},
    {"nas.cg.host_ms_per_sim_s", "ms/s"},
    {"nas.ep.host_ms_per_sim_s", "ms/s"},
    {"nas.ft.host_ms_per_sim_s", "ms/s"},
    {"nas.is.host_ms_per_sim_s", "ms/s"},
    {"nas.lu.host_ms_per_sim_s", "ms/s"},
    {"nas.mg.host_ms_per_sim_s", "ms/s"},
    {"trace.spans", "count"},
    {"trace.overhead_s", "s"},
};

using Layers = std::map<std::string, double>;

/// Threads of the NAS parallel sweep and of the traced run's extra sharded
/// call (whose speed-up over the serial run is sim.speedup): two, or one on
/// a one-CPU host.
int parallel_threads() {
  return std::thread::hardware_concurrency() == 1 ? 1 : 2;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// High-water resident set of this process image.  VmHWM, not getrusage's
/// ru_maxrss: the latter carries over the peak of the process that forked
/// us (run.py's Python adds ~8 MB), so it would depend on the launcher.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- rounds ------------------------------------------------------------------

/// What one round measured and how its operations fared.  An operation is
/// one simulation call together with the checks on its output.
struct Round {
  double wall_s = 0.0;
  double sharded_wall_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  Failures failures;

  void record(Failures found) {
    ++ops;
    if (found.empty()) return;
    ++failed;
    failures.insert(failures.end(), found.begin(), found.end());
  }
};

void append(Failures& into, const Failures& more) {
  into.insert(into.end(), more.begin(), more.end());
}

/// Time one call into the simulator under a span.  A call that throws
/// yields nullopt and its message in `error`.
template <class F>
auto timed_call(Tracer& tracer, const char* span, double& seconds,
                std::string& error, F&& call)
    -> std::optional<decltype(call())> {
  const Clock::time_point start = Clock::now();
  try {
    Tracer::Span s = tracer.span(span);
    auto result = call();
    seconds += seconds_since(start);
    return result;
  } catch (const std::exception& e) {
    seconds += seconds_since(start);
    error = std::string(span) + " threw: " + e.what();
    return std::nullopt;
  }
}

/// Host time of one call made for a per-layer figure, under a span.
template <class F>
double time_span(Tracer& tracer, const char* span, F&& call) {
  Tracer::Span s = tracer.span(span);
  const Clock::time_point start = Clock::now();
  call();
  return seconds_since(start);
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs: the part of a round timed as setup_s.
  virtual void setup(Tracer& tracer) = 0;
  /// The timed serial and parallel calls, with their output checks.
  virtual Round round(Tracer& tracer) = 0;
  /// Traced run only: layer counters and attribution calls.  `serial_s`
  /// and `sharded_s` are the run's median round timings.  Returns what the
  /// checks on those extra calls found.
  virtual Failures layers(Tracer& tracer, double serial_s, double sharded_s,
                          Layers& out) = 0;
  /// Simulated outcomes of the last round, for reference (not gated).
  virtual std::vector<std::string> notes() const = 0;
};

// --- allocator replay --------------------------------------------------------

struct AllocReplay {
  std::uint64_t ops = 0;
  double seconds = 0.0;
  std::uint64_t fragmented = 0;
  std::uint64_t refused = 0;  // allocations the fresh allocator could not serve
};

/// Replay each shard's allocate/release sequence, rebuilt from the job
/// outcomes (dispatch at start, release at finish, releases first at a
/// tie) and the widths, through a fresh batch::NodeAllocator.
AllocReplay replay_allocations(const std::vector<int>& shard_nodes,
                               int block, int slots_per_node,
                               const std::vector<SimTime>& start,
                               const std::vector<SimTime>& finish,
                               const std::vector<int>& shard,
                               const std::vector<int>& width) {
  AllocReplay replay;
  const std::size_t shards = shard_nodes.size();
  std::vector<std::vector<std::tuple<SimTime, int, std::size_t>>> events(
      shards);
  for (std::size_t i = 0; i < start.size(); ++i) {
    const auto s = static_cast<std::size_t>(shard[i]);
    if (s >= shards) continue;
    events[s].emplace_back(start[i], 1, i);
    events[s].emplace_back(finish[i], 0, i);
  }
  std::vector<std::vector<int>> held(start.size());
  const bool shared = slots_per_node > 1;
  for (std::size_t s = 0; s < shards; ++s) {
    std::sort(events[s].begin(), events[s].end());
    batch::NodeAllocator alloc(shard_nodes[s], block,
                               batch::AllocPolicy::kBestFit, slots_per_node);
    const Clock::time_point t0 = Clock::now();
    for (const auto& [t, dispatch, i] : events[s]) {
      if (dispatch == 0) {
        if (held[i].empty()) continue;  // its allocation was refused
        if (shared) {
          alloc.release_slots(held[i]);
        } else {
          alloc.release(held[i]);
        }
        ++replay.ops;
        continue;
      }
      auto got = shared ? alloc.allocate_slots(width[i])
                        : alloc.allocate(width[i]);
      ++replay.ops;
      if (got) {
        held[i] = std::move(*got);
      } else {
        ++replay.refused;
      }
    }
    replay.seconds += seconds_since(t0);
    replay.fragmented += alloc.stats().fragmented;
  }
  return replay;
}

/// Store the replay's figures; a refused allocation means the rebuilt
/// sequence overfills a shard, which the capacity check rules out.
Failures put_alloc(const AllocReplay& replay, Layers& out) {
  out["batch.alloc.ops"] = static_cast<double>(replay.ops);
  out["batch.alloc.ns_per_op"] =
      replay.ops > 0 ? replay.seconds * 1e9 / static_cast<double>(replay.ops)
                     : 0.0;
  out["batch.alloc.fragmented"] = static_cast<double>(replay.fragmented);
  if (replay.refused == 0) return {};
  return {"allocator replay: " + std::to_string(replay.refused) +
          " allocations refused"};
}

// --- scale_fcfs / scale_resilient --------------------------------------------

/// ROADMAP's cluster_scale scenario: 10k nodes, 100k Poisson jobs, 16
/// shards, federated FCFS on exclusive nodes.
batch::ScaleConfig scale_fcfs_config(std::uint64_t seed) {
  batch::ScaleConfig cfg;
  cfg.nodes = 10000;
  cfg.shards = 16;
  cfg.fabric.nodes_per_switch = 32;
  cfg.arrivals.jobs = 100000;
  cfg.arrivals.mean_interarrival = 1 * kMillisecond;
  cfg.arrivals.max_nodes = 64;
  cfg.arrivals.nodes_log_mean = 1.8;
  cfg.arrivals.runtime_typical = 900 * kMillisecond;
  cfg.seed = seed;
  return cfg;
}

/// Every add-on path of the scale simulator on at once: diamond DAG
/// workflow instances, cooperative Young/Daly checkpoints to the shared
/// PFS, a Poisson node-failure campaign and 2-slot shared nodes.
batch::ScaleConfig scale_resilient_config(std::uint64_t seed) {
  batch::ScaleConfig cfg;
  cfg.nodes = 2048;
  cfg.shards = 8;
  cfg.fabric.nodes_per_switch = 32;
  cfg.wf.enabled = true;
  cfg.wf.dag.shape = hpcs::wf::DagShape::kDiamond;
  cfg.wf.dag.branches = 8;
  cfg.wf.dag.depth = 4;
  cfg.wf.dag.nodes_typical = 5;
  cfg.wf.dag.nodes_log_sigma = 0.6;
  cfg.wf.dag.max_nodes = 32;
  cfg.wf.dag.iters_typical = 30;
  cfg.wf.dag.grain = 1 * kSecond;
  cfg.wf.instances = 1000;
  cfg.wf.spacing = 2 * kSecond;
  cfg.ckpt.enabled = true;
  cfg.ckpt.coordinator = hpcs::ckpt::CoordPolicy::kCooperative;
  cfg.ckpt.bytes_per_node = 128ULL << 20;
  cfg.ckpt.downtime = 10 * kSecond;
  cfg.campaign.node_mtbf = 24 * 3600 * kSecond;
  cfg.campaign.horizon = 2400 * kSecond;
  cfg.share.enabled = true;
  cfg.share.slots_per_node = 2;
  cfg.share.contention = 0.15;
  cfg.seed = seed;
  return cfg;
}

class ScaleWorkload final : public Workload {
 public:
  ScaleWorkload(batch::ScaleConfig config, int threads)
      : cfg_(std::move(config)), threads_(threads) {}

  void setup(Tracer& tracer) override {
    Tracer::Span span = tracer.span("setup");
    Tracer::Span gen = tracer.span(cfg_.wf.enabled ? "wf.generate_dag"
                                                   : "batch.generate_arrivals");
    inputs_ = scale_inputs(cfg_);
  }

  Round round(Tracer& tracer) override {
    Round r;
    std::string error;
    auto serial = timed_call(tracer, "batch.run_scale_serial", r.wall_s,
                             error,
                             [&] { return batch::run_scale_serial(cfg_); });
    if (serial) {
      serial_ = std::move(*serial);
      r.record(check(serial_));
    } else {
      r.record({error});
    }
    auto sharded =
        timed_call(tracer, "batch.run_scale_sharded", r.sharded_wall_s, error,
                   [&] { return batch::run_scale_sharded(cfg_, threads_); });
    if (sharded && serial) {
      sharded_ = std::move(*sharded);
      r.record(check_identical(serial_.checksum(), sharded_.checksum()));
    } else {
      r.record({sharded ? "no serial schedule to compare" : error});
    }
    return r;
  }

  Failures layers(Tracer& tracer, double serial_s, double sharded_s,
                  Layers& out) override {
    const batch::ScaleResult& s = serial_;
    Failures found;
    const auto events = static_cast<double>(s.events);
    out["sim.events"] = events;
    out["sim.ns_per_event"] = events > 0 ? serial_s * 1e9 / events : 0.0;
    out["sim.rounds"] = static_cast<double>(sharded_.rounds);
    out["sim.events_per_round"] =
        sharded_.rounds > 0 ? static_cast<double>(sharded_.events) /
                                  static_cast<double>(sharded_.rounds)
                            : 0.0;
    const double parallel_s =
        time_span(tracer, "batch.run_scale_sharded.parallel", [&] {
          const batch::ScaleResult parallel =
              batch::run_scale_sharded(cfg_, parallel_threads());
          append(found, check_identical(s.checksum(), parallel.checksum()));
        });
    out["sim.sync_s"] = sharded_s - serial_s;
    out["sim.speedup"] = parallel_s > 0 ? serial_s / parallel_s : 0.0;
    std::uint64_t cross_releases = 0;
    for (std::size_t i = 0; i < inputs_.deps.size(); ++i) {
      const auto home = static_cast<std::int32_t>((i + 1) % cfg_.shards);
      for (const int parent : inputs_.deps[i]) {
        if (s.jobs[static_cast<std::size_t>(parent - 1)].ran_shard != home) {
          ++cross_releases;
        }
      }
    }
    out["sim.cross_shard_msgs"] =
        static_cast<double>(s.gossip_messages + s.forwards + cross_releases);
    out["batch.gossip_msgs"] = static_cast<double>(s.gossip_messages);
    out["batch.gossip_share"] =
        events > 0 ? static_cast<double>(s.gossip_messages) / events : 0.0;
    out["batch.forwards"] = static_cast<double>(s.forwards);
    {
      Tracer::Span span = tracer.span("batch.NodeAllocator.replay");
      std::vector<SimTime> start;
      std::vector<SimTime> finish;
      std::vector<int> shard;
      for (const batch::ScaleJobOutcome& o : s.jobs) {
        start.push_back(o.start);
        finish.push_back(o.finish);
        shard.push_back(o.ran_shard);
      }
      append(found, put_alloc(replay_allocations(
                                  inputs_.shard_nodes, cfg_.allocator_block,
                                  inputs_.slots_per_node, start, finish,
                                  shard, inputs_.width),
                              out));
    }
    out["ckpt.writes"] = static_cast<double>(s.ckpt.checkpoints);
    out["fault.failures_hit"] = static_cast<double>(s.ckpt.failures_hit);
    out["wf.dep_releases"] = static_cast<double>(s.dep_releases);
    if (cfg_.wf.enabled) attribute_addons(tracer, out);
    return found;
  }

  std::vector<std::string> notes() const override {
    const batch::ScaleResult& s = serial_;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "jobs %zu, events %llu (gossip %llu), makespan %.3f s, "
                  "mean wait %.3f s, p95 wait %.3f s, utilization %.4f, "
                  "checksum %016llx",
                  s.jobs.size(), static_cast<unsigned long long>(s.events),
                  static_cast<unsigned long long>(s.gossip_messages),
                  hpcs::to_seconds(s.makespan), s.mean_wait_s, s.p95_wait_s,
                  s.utilization, static_cast<unsigned long long>(s.checksum()));
    std::vector<std::string> out{buf};
    if (cfg_.wf.enabled) {
      std::snprintf(buf, sizeof buf,
                    "checkpoints %llu, failures on busy nodes %llu, dep "
                    "releases %llu, co-located dispatches %llu, waste %.4f",
                    static_cast<unsigned long long>(s.ckpt.checkpoints),
                    static_cast<unsigned long long>(s.ckpt.failures_hit),
                    static_cast<unsigned long long>(s.dep_releases),
                    static_cast<unsigned long long>(colocated_),
                    s.ckpt.waste_frac);
      out.emplace_back(buf);
    }
    return out;
  }

 private:
  Failures check(const batch::ScaleResult& result) {
    Failures found = check_scale_jobs(inputs_, result.jobs);
    CapacityReport capacity = check_scale_capacity(inputs_, result.jobs);
    append(found, capacity.failures);
    colocated_ = capacity.colocated;
    append(found, check_scale_aggregates(inputs_, result));
    if (cfg_.wf.enabled) {
      append(found, check_scale_workflow(inputs_, result));
      if (result.ckpt.checkpoints == 0) found.emplace_back("no checkpoints");
      if (result.ckpt.failures_hit == 0) {
        found.emplace_back("no failure hit a busy node");
      }
      if (cfg_.share.enabled && colocated_ == 0) {
        found.emplace_back("no provably co-located jobs");
      }
    }
    return found;
  }

  /// Host time each add-on adds over the plain path: the workflow rung
  /// (DAG tasks, no other add-on) against plain arrivals of the same job
  /// count and shape, and checkpoints+faults / sharing against the
  /// workflow rung.
  void attribute_addons(Tracer& tracer, Layers& out) {
    batch::ScaleConfig wf_only = cfg_;
    wf_only.ckpt.enabled = false;
    wf_only.campaign.node_mtbf = 0;
    wf_only.share.enabled = false;
    batch::ScaleConfig with_ckpt = wf_only;
    with_ckpt.ckpt = cfg_.ckpt;
    with_ckpt.campaign = cfg_.campaign;
    batch::ScaleConfig with_share = wf_only;
    with_share.share = cfg_.share;
    batch::ScaleConfig plain = wf_only;
    plain.wf.enabled = false;
    const hpcs::wf::DagGenConfig& dag = cfg_.wf.dag;
    const auto tasks = static_cast<int>(inputs_.width.size());
    plain.arrivals.jobs = tasks;
    plain.arrivals.mean_interarrival =
        cfg_.wf.spacing * cfg_.wf.instances / std::max(1, tasks);
    plain.arrivals.nodes_log_mean = std::log(dag.nodes_typical);
    plain.arrivals.nodes_log_sigma = dag.nodes_log_sigma;
    plain.arrivals.max_nodes = dag.max_nodes;
    plain.arrivals.runtime_typical = dag.iters_typical * dag.grain;
    plain.arrivals.runtime_log_sigma = dag.iters_log_sigma;
    plain.arrivals.grain = dag.grain;
    const auto time_rung = [&](const char* span,
                               const batch::ScaleConfig& cfg) {
      return time_span(tracer, span, [&] { batch::run_scale_serial(cfg); });
    };
    const double plain_s = time_rung("batch.run_scale_serial.plain", plain);
    const double wf_s = time_rung("batch.run_scale_serial.wf", wf_only);
    const double ckpt_s =
        time_rung("batch.run_scale_serial.wf+ckpt", with_ckpt);
    const double share_s =
        time_rung("batch.run_scale_serial.wf+share", with_share);
    out["batch.addon.wf_s"] = wf_s - plain_s;
    out["batch.addon.ckpt_s"] = ckpt_s - wf_s;
    out["batch.addon.share_s"] = share_s - wf_s;
  }

  batch::ScaleConfig cfg_;
  int threads_;
  ScaleInputs inputs_;
  batch::ScaleResult serial_;
  batch::ScaleResult sharded_;
  std::uint64_t colocated_ = 0;
};

// --- replay_prod -------------------------------------------------------------

/// 448 nodes x 8 shards under the full PBS-class policy: express + workq
/// queues, fairshare, checkpoint-backed preemption, EASY backfill.
batch::ReplayConfig replay_prod_config(std::uint64_t seed) {
  batch::ReplayConfig cfg;
  cfg.nodes = 448;
  cfg.shards = 8;
  cfg.fabric.nodes_per_switch = 32;
  cfg.cycle = 1 * kSecond;
  cfg.tau = 10 * kSecond;
  batch::QueueConfig express;
  express.name = "express";
  express.priority = 10;
  express.max_nodes = 8;
  express.max_walltime = 1800 * kSecond;
  batch::QueueConfig workq;
  workq.name = "workq";
  cfg.queues = {express, workq};
  cfg.fairshare.enabled = true;
  cfg.fairshare.halflife = 3600 * kSecond;
  cfg.preempt.enabled = true;
  cfg.ckpt.interval = 300 * kSecond;
  cfg.seed = seed;
  return cfg;
}

/// A skewed-user trace in the tools/swf_gen shape: Poisson submits every
/// 30 s on average, log-normal widths and runtimes, 16 Zipf(1.2)-ranked
/// users, the heaviest one running 4x longer jobs.
std::vector<batch::JobSpec> skewed_trace(int jobs, std::uint64_t seed) {
  batch::ArrivalConfig arrivals;
  arrivals.jobs = jobs;
  arrivals.mean_interarrival = 30 * kSecond;
  arrivals.max_nodes = 64;
  arrivals.nodes_log_mean = 1.2;
  arrivals.nodes_log_sigma = 1.0;
  arrivals.runtime_typical = 600 * kSecond;
  arrivals.runtime_log_sigma = 1.0;
  arrivals.grain = 10 * kSecond;
  arrivals.users = 16;
  arrivals.user_zipf = 1.2;
  std::vector<batch::JobSpec> trace = batch::generate_arrivals(arrivals, seed);
  for (batch::JobSpec& job : trace) {
    if (job.user == 1) {
      job.iterations *= 4;
      job.estimate *= 4;
    }
  }
  return trace;
}

/// Rescale submit times so the trace offers `load` x the cluster's
/// node-seconds over its span (Feitelson-style load scaling).  Queue depth
/// near saturation swings with small load differences between seeds; a
/// fixed offered load keeps each seed's replay cost comparable.
void scale_to_load(std::vector<batch::JobSpec>& trace, int nodes,
                   int width_cap, double load) {
  if (trace.size() < 2) return;
  double work = 0.0;  // node-seconds
  for (const batch::JobSpec& job : trace) {
    work += std::clamp(job.nodes, 1, width_cap) *
            hpcs::to_seconds(static_cast<SimDuration>(job.iterations) *
                             job.grain);
  }
  const SimTime first = trace.front().arrival;
  const double span = hpcs::to_seconds(trace.back().arrival - first);
  const double factor = work / (load * nodes) / span;
  for (batch::JobSpec& job : trace) {
    job.arrival = first + static_cast<SimTime>(
                              static_cast<double>(job.arrival - first) *
                              factor);
  }
}

class ReplayWorkload final : public Workload {
 public:
  static constexpr double kOfferedLoad = 0.85;

  ReplayWorkload(batch::ReplayConfig config, int jobs, int threads)
      : cfg_(std::move(config)), jobs_(jobs), threads_(threads) {}

  void setup(Tracer& tracer) override {
    Tracer::Span span = tracer.span("setup");
    batch::validate_queues(cfg_.queues);
    hpcs::net::FabricConfig fabric = cfg_.fabric;
    fabric.nodes = cfg_.nodes;
    const hpcs::cluster::ShardPartition partition(fabric, cfg_.shards);
    ReplayInputs in;
    in.cycle = cfg_.cycle;
    in.tau = cfg_.tau;
    in.width_cap = partition.min_shard_nodes();
    in.queues = cfg_.queues;
    {
      Tracer::Span gen = tracer.span("batch.generate_arrivals");
      in.specs = skewed_trace(jobs_, cfg_.seed);
      scale_to_load(in.specs, cfg_.nodes, in.width_cap, kOfferedLoad);
    }
    shard_nodes_.clear();
    for (int s = 0; s < partition.num_shards(); ++s) {
      shard_nodes_.push_back(partition.node_count(s));
    }
    inputs_ = std::move(in);
  }

  Round round(Tracer& tracer) override {
    Round r;
    std::string error;
    auto serial = timed_call(
        tracer, "batch.run_replay_serial", r.wall_s, error,
        [&] { return batch::run_replay_serial(cfg_, inputs_.specs); });
    if (serial) {
      serial_ = std::move(*serial);
      r.record(check_replay(inputs_, serial_));
    } else {
      r.record({error});
    }
    auto sharded = timed_call(
        tracer, "batch.run_replay_sharded", r.sharded_wall_s, error, [&] {
          return batch::run_replay_sharded(cfg_, inputs_.specs, threads_);
        });
    if (sharded && serial) {
      sharded_ = std::move(*sharded);
      r.record(check_identical(serial_.checksum(), sharded_.checksum()));
    } else {
      r.record({sharded ? "no serial schedule to compare" : error});
    }
    return r;
  }

  Failures layers(Tracer& tracer, double serial_s, double sharded_s,
                  Layers& out) override {
    const batch::ReplayResult& s = serial_;
    Failures found;
    const auto events = static_cast<double>(s.events);
    out["sim.events"] = events;
    out["sim.ns_per_event"] = events > 0 ? serial_s * 1e9 / events : 0.0;
    out["sim.rounds"] = static_cast<double>(sharded_.rounds);
    out["sim.events_per_round"] =
        sharded_.rounds > 0 ? static_cast<double>(sharded_.events) /
                                  static_cast<double>(sharded_.rounds)
                            : 0.0;
    const double parallel_s =
        time_span(tracer, "batch.run_replay_sharded.parallel", [&] {
          const batch::ReplayResult parallel = batch::run_replay_sharded(
              cfg_, inputs_.specs, parallel_threads());
          append(found, check_identical(s.checksum(), parallel.checksum()));
        });
    out["sim.sync_s"] = sharded_s - serial_s;
    out["sim.speedup"] = parallel_s > 0 ? serial_s / parallel_s : 0.0;
    out["sim.cross_shard_msgs"] =
        static_cast<double>(s.gossip_messages + s.forwards);
    out["batch.gossip_msgs"] = static_cast<double>(s.gossip_messages);
    out["batch.gossip_share"] =
        events > 0 ? static_cast<double>(s.gossip_messages) / events : 0.0;
    out["batch.forwards"] = static_cast<double>(s.forwards);
    out["batch.preemptions"] = static_cast<double>(s.preemptions);
    {
      // A preempted job leaves and re-takes its nodes, which start/finish
      // cannot show: replay the never-preempted jobs only.
      Tracer::Span span = tracer.span("batch.NodeAllocator.replay");
      std::vector<SimTime> start;
      std::vector<SimTime> finish;
      std::vector<int> shard;
      std::vector<int> width;
      for (std::size_t i = 0; i < s.jobs.size(); ++i) {
        const batch::ReplayJobOutcome& o = s.jobs[i];
        if (o.queue < 0 || o.preempts > 0) continue;
        start.push_back(o.start);
        finish.push_back(o.finish);
        shard.push_back(o.ran_shard);
        width.push_back(std::clamp(inputs_.specs[i].nodes, 1,
                                   inputs_.width_cap));
      }
      append(found, put_alloc(replay_allocations(shard_nodes_,
                                                 cfg_.allocator_block, 1,
                                                 start, finish, shard, width),
                              out));
    }
    // Policy attribution: each feature's rung against the FCFS rung
    // (one catch-all queue, no fairshare, no preemption) on the same trace.
    batch::ReplayConfig fcfs = cfg_;
    fcfs.queues.clear();
    fcfs.fairshare.enabled = false;
    fcfs.preempt.enabled = false;
    batch::ReplayConfig fair = cfg_;
    fair.preempt.enabled = false;
    batch::ReplayConfig preempt = cfg_;
    preempt.fairshare.enabled = false;
    const double fcfs_s =
        time_span(tracer, "batch.run_replay_serial.fcfs",
                  [&] { batch::run_replay_serial(fcfs, inputs_.specs); });
    const double fair_s =
        time_span(tracer, "batch.run_replay_serial.fairshare",
                  [&] { batch::run_replay_serial(fair, inputs_.specs); });
    const double preempt_s =
        time_span(tracer, "batch.run_replay_serial.preempt", [&] {
          batch::run_replay_serial(preempt, inputs_.specs);
        });
    out["batch.policy.fairshare_s"] = fair_s - fcfs_s;
    out["batch.policy.preempt_s"] = preempt_s - fcfs_s;
    return found;
  }

  std::vector<std::string> notes() const override {
    const batch::ReplayResult& s = serial_;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "jobs %zu (%d rejected), events %llu, makespan %.0f s, "
                  "mean wait %.1f s, p95 wait %.1f s, Jain(users) %.4f, "
                  "preemptions %llu, utilization %.4f, checksum %016llx",
                  s.jobs.size(), s.rejected,
                  static_cast<unsigned long long>(s.events),
                  hpcs::to_seconds(s.makespan),
                  s.mean_wait_s, s.p95_wait_s, s.user_fairness,
                  static_cast<unsigned long long>(s.preemptions),
                  s.utilization,
                  static_cast<unsigned long long>(s.checksum()));
    return {buf};
  }

 private:
  batch::ReplayConfig cfg_;
  int jobs_;
  int threads_;
  ReplayInputs inputs_;
  std::vector<int> shard_nodes_;
  batch::ReplayResult serial_;
  batch::ReplayResult sharded_;
};

// --- nas_paper ---------------------------------------------------------------

/// The paper's 12 NAS instances under standard Linux and HPL, through
/// exp::run_series: serially (wall_s) and as a parallel sweep
/// (sharded_wall_s), each series `runs` seeds long.
class NasWorkload final : public Workload {
 public:
  NasWorkload(std::uint64_t seed, int runs, int threads)
      : base_seed_(seed * 1000 + 1), runs_(runs), threads_(threads) {}

  void setup(Tracer& tracer) override {
    Tracer::Span span = tracer.span("setup");
    Tracer::Span build = tracer.span("workloads.build_nas_program");
    configs_.clear();
    for (const wl::NasInstance& inst : wl::nas_paper_suite()) {
      exp::RunConfig config;
      config.program = wl::build_nas_program(inst);
      config.mpi.nranks = inst.nranks;
      config.setup = exp::Setup::kStandardLinux;
      exp::RunConfig hpl = config;
      hpl.setup = exp::Setup::kHpl;
      configs_.push_back({inst, std::move(config), std::move(hpl)});
    }
  }

  Round round(Tracer& tracer) override {
    Round r;
    rows_.clear();
    std_host_s_ = 0.0;
    hpl_host_s_ = 0.0;
    host_s_.clear();
    sim_s_.clear();
    std::string error;
    const exp::SweepOptions serial_sweep{1};
    for (const Config& c : configs_) {
      NasRow row;
      row.instance = c.instance;
      double std_s = 0.0;
      double hpl_s = 0.0;
      auto std_series = timed_call(tracer, "exp.run_series.std", std_s, error,
                                   [&] {
                                     return exp::run_series(
                                         c.std_linux, runs_, base_seed_,
                                         serial_sweep);
                                   });
      auto hpl_series = timed_call(tracer, "exp.run_series.hpl", hpl_s, error,
                                   [&] {
                                     return exp::run_series(
                                         c.hpl, runs_, base_seed_,
                                         serial_sweep);
                                   });
      r.wall_s += std_s + hpl_s;
      std_host_s_ += std_s;
      hpl_host_s_ += hpl_s;
      if (!std_series || !hpl_series) {
        r.record({error});
        continue;
      }
      row.std_linux = std::move(*std_series);
      row.hpl = std::move(*hpl_series);
      const std::string bench = wl::nas_benchmark_name(c.instance.bench);
      host_s_[bench] += std_s + hpl_s;
      for (const auto* series : {&row.std_linux, &row.hpl}) {
        for (const exp::RunResult& run : series->runs) {
          sim_s_[bench] += run.app_seconds;
        }
      }
      r.record(check_nas({row}));
      rows_.push_back(std::move(row));
    }
    const exp::SweepOptions parallel{threads_};
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const Config& c = configs_[i];
      auto std_series = timed_call(
          tracer, "exp.run_series.std.parallel", r.sharded_wall_s, error,
          [&] {
            return exp::run_series(c.std_linux, runs_, base_seed_, parallel);
          });
      auto hpl_series = timed_call(
          tracer, "exp.run_series.hpl.parallel", r.sharded_wall_s, error,
          [&] { return exp::run_series(c.hpl, runs_, base_seed_, parallel); });
      if (!std_series || !hpl_series) {
        r.record({error});
        continue;
      }
      if (i >= rows_.size()) {
        r.record({"no serial series to compare"});
        continue;
      }
      Failures found = check_same_series(rows_[i].std_linux, *std_series);
      append(found, check_same_series(rows_[i].hpl, *hpl_series));
      r.record(std::move(found));
    }
    return r;
  }

  Failures layers(Tracer& /*tracer*/, double /*serial_s*/,
                  double /*sharded_s*/, Layers& out) override {
    double switches[2] = {0, 0};
    double migrations[2] = {0, 0};
    for (const NasRow& row : rows_) {
      for (const exp::RunResult& run : row.std_linux.runs) {
        switches[0] += static_cast<double>(run.context_switches);
        migrations[0] += static_cast<double>(run.cpu_migrations);
      }
      for (const exp::RunResult& run : row.hpl.runs) {
        switches[1] += static_cast<double>(run.context_switches);
        migrations[1] += static_cast<double>(run.cpu_migrations);
      }
    }
    out["kernel.std.context_switches"] = switches[0];
    out["kernel.hpl.context_switches"] = switches[1];
    out["kernel.std.migrations"] = migrations[0];
    out["kernel.hpl.migrations"] = migrations[1];
    out["exp.std.host_s"] = std_host_s_;
    out["exp.hpl.host_s"] = hpl_host_s_;
    for (const auto& [bench, host_s] : host_s_) {
      const double sim_s = sim_s_[bench];
      out["nas." + bench + ".host_ms_per_sim_s"] =
          sim_s > 0 ? host_s * 1e3 / sim_s : 0.0;
    }
    return {};
  }

  std::vector<std::string> notes() const override {
    std::vector<std::string> out;
    for (const NasRow& row : rows_) {
      char buf[200];
      std::snprintf(
          buf, sizeof buf,
          "%-8s std min %.3f s / Var%% %.2f   hpl min %.3f s / Var%% %.2f   "
          "(Table II min %.2f s)",
          wl::nas_instance_name(row.instance).c_str(),
          row.std_linux.seconds().min(),
          row.std_linux.seconds().range_variation_pct(),
          row.hpl.seconds().min(), row.hpl.seconds().range_variation_pct(),
          wl::nas_reference_seconds(row.instance.bench, row.instance.cls));
      out.emplace_back(buf);
    }
    return out;
  }

 private:
  struct Config {
    wl::NasInstance instance;
    exp::RunConfig std_linux;
    exp::RunConfig hpl;
  };

  std::uint64_t base_seed_;
  int runs_;
  int threads_;
  std::vector<Config> configs_;
  std::vector<NasRow> rows_;
  double std_host_s_ = 0.0;
  double hpl_host_s_ = 0.0;
  std::map<std::string, double> host_s_;  // by benchmark, both setups
  std::map<std::string, double> sim_s_;   // simulated app seconds
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  const int sharded = o.threads > 0 ? o.threads : 1;
  if (o.workload == "nas_paper") {
    return std::make_unique<NasWorkload>(
        o.seed, 2, o.threads > 0 ? o.threads : parallel_threads());
  }
  if (o.workload == "scale_fcfs") {
    return std::make_unique<ScaleWorkload>(scale_fcfs_config(o.seed),
                                           sharded);
  }
  if (o.workload == "replay_prod") {
    return std::make_unique<ReplayWorkload>(replay_prod_config(o.seed),
                                            100000, sharded);
  }
  if (o.workload == "scale_resilient") {
    return std::make_unique<ScaleWorkload>(scale_resilient_config(o.seed),
                                           sharded);
  }
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

/// nas_paper and replay_prod are runnable by name but kept out of
/// BENCHMARK.json: on a shared host their host times swing with the
/// machine's speed more than a bound can absorb (see README.md).  Their
/// layers are still measured: a traced run of the host workload makes one
/// round of the companion's calls and keeps the named layer figures.
struct Companion {
  const char* host;
  const char* workload;
  std::vector<std::string> prefixes;
};

const std::vector<Companion>& companions() {
  static const std::vector<Companion> list = {
      {"scale_fcfs", "nas_paper", {"kernel.", "exp.", "nas."}},
      {"scale_resilient",
       "replay_prod",
       {"batch.policy.", "batch.preemptions"}},
  };
  return list;
}

/// Set-ups per round after the first: a set-up takes milliseconds, so its
/// median needs more samples than the rounds alone give.
constexpr int kSetupsPerRound = 10;

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "nas_paper", "scale_fcfs", "replay_prod", "scale_resilient"};
  return names;
}

Outcome run_benchmark(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options);
  Tracer tracer(options.trace);
  Outcome outcome;
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> sharded_s;
  std::vector<double> traced_wall_s;
  std::vector<double> untraced_wall_s;
  double first_round_rss_mb = 0.0;
  const Clock::time_point begin = Clock::now();
  const auto absorb = [&](Round& r) {
    outcome.attempted += r.ops;
    outcome.failed += r.failed;
    for (std::string& f : r.failures) {
      if (outcome.failures.size() < 16) outcome.failures.push_back(f);
    }
  };
  // Whole rounds until the time is up.  A traced run alternates untraced
  // and traced rounds so their difference is the tracing overhead.
  for (int k = 0;; ++k) {
    const bool traced = options.trace && k % 2 == 1;
    tracer.set_enabled(traced);
    // The first round sets up once, like a single experiment, so the
    // memory high-water mark taken after it holds one set of inputs and
    // one round of calls; later rounds add the repeated set-ups.
    for (int rep = 0; rep < (k == 0 ? 1 : kSetupsPerRound); ++rep) {
      const Clock::time_point t0 = Clock::now();
      workload->setup(tracer);
      setup_s.push_back(seconds_since(t0));
    }
    Round r = workload->round(tracer);
    if (k == 0) first_round_rss_mb = peak_rss_mb();
    wall_s.push_back(r.wall_s);
    sharded_s.push_back(r.sharded_wall_s);
    (traced ? traced_wall_s : untraced_wall_s).push_back(r.wall_s);
    absorb(r);
    const bool enough_rounds = !options.trace || k >= 1;
    if (enough_rounds && seconds_since(begin) >= options.seconds) break;
  }
  if (options.trace) {
    tracer.set_enabled(true);
    Layers layers;
    // The extra calls' checks count as one more operation.
    Round extra;
    extra.record(
        workload->layers(tracer, median(wall_s), median(sharded_s), layers));
    absorb(extra);
    for (const Companion& c : companions()) {
      if (options.workload != c.host) continue;
      Tracer::Span span = tracer.span(std::string("companion.") + c.workload);
      Options other_options = options;
      other_options.workload = c.workload;
      const std::unique_ptr<Workload> other = make_workload(other_options);
      other->setup(tracer);
      Round other_round = other->round(tracer);
      Layers theirs;
      other_round.record(other->layers(tracer, other_round.wall_s,
                                       other_round.sharded_wall_s, theirs));
      absorb(other_round);
      for (const auto& [name, value] : theirs) {
        for (const std::string& prefix : c.prefixes) {
          if (name.rfind(prefix, 0) == 0) layers[name] = value;
        }
      }
      for (const std::string& note : other->notes()) {
        outcome.notes.push_back(std::string(c.workload) + ": " + note);
      }
    }
    layers["trace.spans"] = static_cast<double>(tracer.spans());
    layers["trace.overhead_s"] =
        median(traced_wall_s) - median(untraced_wall_s);
    for (const MetricDef& m : kPerLayer) {
      const auto it = layers.find(m.name);
      outcome.metrics.push_back(
          {m.name, m.unit, it == layers.end() ? 0.0 : it->second});
    }
    if (!options.trace_out.empty()) tracer.write_chrome(options.trace_out);
  } else {
    const double values[] = {median(setup_s), median(wall_s),
                             median(sharded_s), first_round_rss_mb};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      outcome.metrics.push_back({kEndToEnd[i].name, kEndToEnd[i].unit,
                                 values[i]});
    }
  }
  outcome.correct = outcome.failed == 0;
  std::vector<std::string> notes = workload->notes();
  notes.insert(notes.end(), outcome.notes.begin(), outcome.notes.end());
  outcome.notes = std::move(notes);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%zu rounds; setup/serial/parallel medians %.6f / %.4f / "
                "%.4f s",
                wall_s.size(), median(setup_s), median(wall_s),
                median(sharded_s));
  outcome.notes.emplace_back(buf);
  std::string per_round = "per round wall_s/sharded_wall_s:";
  for (std::size_t i = 0; i < wall_s.size(); ++i) {
    std::snprintf(buf, sizeof buf, " %.4f/%.4f", wall_s[i], sharded_s[i]);
    per_round += buf;
  }
  outcome.notes.push_back(std::move(per_round));
  return outcome;
}

}  // namespace perfbench

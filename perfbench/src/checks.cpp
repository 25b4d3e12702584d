#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>

#include "batch/workload.h"
#include "cluster/partition.h"
#include "wf/generator.h"

namespace perfbench {

using hpcs::batch::ReplayJobOutcome;
using hpcs::batch::ScaleJobOutcome;

namespace {

SimTime align_up(SimTime t, SimDuration q) { return (t + q - 1) / q * q; }

/// Collects violations, keeping the first few messages in full and counting
/// the rest, so a broken run cannot flood the output.
class Report {
 public:
  explicit Report(std::string what) : what_(std::move(what)) {}

  void fail(const std::string& message) {
    if (++count_ <= kKept) failures_.push_back(what_ + ": " + message);
  }

  Failures done() {
    if (count_ > kKept) {
      failures_.push_back(what_ + ": ... " + std::to_string(count_ - kKept) +
                          " more");
    }
    return std::move(failures_);
  }

 private:
  static constexpr int kKept = 4;
  std::string what_;
  Failures failures_;
  int count_ = 0;
};

std::string job_label(std::size_t index) {
  return "job " + std::to_string(index + 1);
}

bool nearly_equal(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

/// NAS tolerances.  A run may be at most this fraction faster than the
/// Table II HPL minimum (the model is calibrated to it, not bit-exact).
constexpr double kNasBelowReference = 0.01;
/// HPL range variation (max - min) / min per instance, percent.
constexpr double kNasHplVarPct = 3.0;
/// HPL's minimum may exceed standard Linux's by this fraction: when neither
/// run met noise, the two differ by simulation arithmetic alone (is.A:
/// 0.3644520 vs 0.3644519 s).
constexpr double kNasHplOverStd = 0.001;

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

ScaleInputs scale_inputs(const hpcs::batch::ScaleConfig& cfg) {
  hpcs::net::FabricConfig fabric = cfg.fabric;
  fabric.nodes = cfg.nodes;
  const hpcs::cluster::ShardPartition partition(fabric, cfg.shards);
  ScaleInputs in;
  in.cycle = cfg.cycle;
  in.node_noise = cfg.node_noise;
  in.bounded_runtime = !cfg.ckpt.enabled && cfg.campaign.node_mtbf == 0;
  in.slots_per_node = cfg.share.enabled ? cfg.share.slots_per_node : 1;
  for (int s = 0; s < partition.num_shards(); ++s) {
    in.shard_nodes.push_back(partition.node_count(s));
  }
  if (cfg.wf.enabled) {
    hpcs::wf::DagGenConfig gen = cfg.wf.dag;
    gen.max_nodes = std::min(gen.max_nodes, partition.min_shard_nodes());
    int next_id = 1;
    for (int w = 0; w < cfg.wf.instances; ++w) {
      gen.first_id = next_id;
      for (hpcs::wf::TaskSpec& task : hpcs::wf::generate_dag(gen, cfg.seed)) {
        in.arrival.push_back(static_cast<SimTime>(w) * cfg.wf.spacing);
        in.width.push_back(task.nodes);
        in.base.push_back(static_cast<SimDuration>(task.iterations) *
                          task.grain);
        in.deps.push_back(std::move(task.deps));
        ++next_id;
      }
    }
    return in;
  }
  hpcs::batch::ArrivalConfig arrivals = cfg.arrivals;
  arrivals.max_nodes =
      std::min(arrivals.max_nodes, partition.min_shard_nodes());
  for (const hpcs::batch::JobSpec& spec :
       hpcs::batch::generate_arrivals(arrivals, cfg.seed)) {
    in.arrival.push_back(spec.arrival);
    in.width.push_back(spec.nodes);
    in.base.push_back(static_cast<SimDuration>(spec.iterations) * spec.grain);
  }
  return in;
}

Failures check_scale_jobs(const ScaleInputs& in,
                          const std::vector<ScaleJobOutcome>& jobs) {
  Report r("scale jobs");
  if (jobs.size() != in.arrival.size()) {
    r.fail(std::to_string(jobs.size()) + " outcomes for " +
           std::to_string(in.arrival.size()) + " submitted jobs");
    return r.done();
  }
  const auto shards = static_cast<std::int32_t>(in.shard_nodes.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ScaleJobOutcome& o = jobs[i];
    if (o.arrival != align_up(in.arrival[i], in.cycle)) {
      r.fail(job_label(i) + " arrival " + std::to_string(o.arrival) +
             " is not align_up(submit)");
    }
    if (o.start < o.arrival) {
      r.fail(job_label(i) + " starts before its arrival");
    }
    if (o.finish <= o.start) {
      r.fail(job_label(i) + " never finished after its start");
    }
    if (o.ran_shard < 0 || o.ran_shard >= shards) {
      r.fail(job_label(i) + " ran on no shard");
    }
    if (in.bounded_runtime) {
      const SimDuration base = in.base[i];
      const auto noisy = static_cast<SimDuration>(
          std::ceil(static_cast<double>(base) * (1.0 + in.node_noise)));
      const SimTime lo = align_up(o.start + base, in.cycle);
      const SimTime hi = align_up(o.start + noisy, in.cycle);
      if (o.finish < lo || o.finish > hi) {
        r.fail(job_label(i) + " finish " + std::to_string(o.finish) +
               " outside [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]");
      }
    }
  }
  return r.done();
}

CapacityReport check_scale_capacity(const ScaleInputs& in,
                                    const std::vector<ScaleJobOutcome>& jobs) {
  Report r("scale capacity");
  CapacityReport report;
  const std::size_t shards = in.shard_nodes.size();
  // (time, release-before-dispatch, job index) per shard.
  std::vector<std::vector<std::tuple<SimTime, int, std::size_t>>> events(
      shards);
  for (std::size_t i = 0; i < jobs.size() && i < in.width.size(); ++i) {
    const auto s = static_cast<std::size_t>(jobs[i].ran_shard);
    if (s >= shards) continue;  // reported by check_scale_jobs
    events[s].emplace_back(jobs[i].start, 1, i);
    events[s].emplace_back(jobs[i].finish, 0, i);
  }
  const int slots = std::max(1, in.slots_per_node);
  for (std::size_t s = 0; s < shards; ++s) {
    std::sort(events[s].begin(), events[s].end());
    const std::int64_t nodes = in.shard_nodes[s];
    std::int64_t used = 0;        // slots (nodes when exclusive)
    std::int64_t min_nodes = 0;   // distinct nodes the running jobs need
    for (const auto& [t, dispatch, i] : events[s]) {
      const int w = in.width[i];
      const int need = (w + slots - 1) / slots;
      if (dispatch == 0) {
        used -= w;
        min_nodes -= need;
        continue;
      }
      used += w;
      min_nodes += need;
      if (used > nodes * slots) {
        r.fail("shard " + std::to_string(s) + " holds " +
               std::to_string(used) + " of " +
               std::to_string(nodes * slots) + " at t=" + std::to_string(t));
      }
      if (slots > 1 && min_nodes > nodes) ++report.colocated;
    }
  }
  report.failures = r.done();
  return report;
}

Failures check_scale_aggregates(const ScaleInputs& in,
                                const hpcs::batch::ScaleResult& result) {
  Report r("scale aggregates");
  if (result.jobs.empty() || result.jobs.size() != in.width.size()) {
    r.fail("no outcomes to aggregate");
    return r.done();
  }
  SimTime first = result.jobs.front().arrival;
  SimTime last = 0;
  double busy = 0.0;
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const ScaleJobOutcome& o = result.jobs[i];
    first = std::min(first, o.arrival);
    last = std::max(last, o.finish);
    busy += static_cast<double>(in.width[i]) *
            static_cast<double>(o.finish - o.start);
  }
  if (result.makespan != last - first) {
    r.fail("makespan " + std::to_string(result.makespan) +
           " != last finish - first arrival " + std::to_string(last - first));
  }
  double capacity = 0.0;
  for (const int n : in.shard_nodes) capacity += n;
  capacity *= std::max(1, in.slots_per_node);
  const double span = static_cast<double>(std::max<SimTime>(1, last - first));
  const double util = busy / (capacity * span);
  if (!nearly_equal(result.utilization, util)) {
    r.fail("utilization " + num(result.utilization) + " != recomputed " +
           num(util));
  }
  return r.done();
}

Failures check_scale_workflow(const ScaleInputs& in,
                              const hpcs::batch::ScaleResult& result) {
  Report r("scale workflow");
  std::uint64_t edges = 0;
  for (const auto& deps : in.deps) edges += deps.size();
  if (result.dep_releases != edges) {
    r.fail("dep_releases " + std::to_string(result.dep_releases) +
           " != DAG edges " + std::to_string(edges));
  }
  for (std::size_t i = 0; i < in.deps.size() && i < result.jobs.size(); ++i) {
    for (const int parent : in.deps[i]) {
      const auto p = static_cast<std::size_t>(parent - 1);
      if (p >= result.jobs.size()) {
        r.fail(job_label(i) + " depends on unknown job " +
               std::to_string(parent));
      } else if (result.jobs[i].start < result.jobs[p].finish) {
        r.fail(job_label(i) + " starts before parent " +
               std::to_string(parent) + " finishes");
      }
    }
  }
  return r.done();
}

Failures check_identical(std::uint64_t serial_checksum,
                         std::uint64_t sharded_checksum) {
  Report r("serial vs sharded");
  if (serial_checksum != sharded_checksum) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "checksum %016llx != %016llx",
                  static_cast<unsigned long long>(sharded_checksum),
                  static_cast<unsigned long long>(serial_checksum));
    r.fail(buf);
  }
  return r.done();
}

Failures check_replay(const ReplayInputs& in,
                      const hpcs::batch::ReplayResult& result) {
  Report r("replay");
  if (result.jobs.size() != in.specs.size()) {
    r.fail(std::to_string(result.jobs.size()) + " outcomes for " +
           std::to_string(in.specs.size()) + " submitted jobs");
    return r.done();
  }
  int rejected = 0;
  std::map<int, std::pair<double, int>> user_slowdown;  // sum, count
  const double tau_s = hpcs::to_seconds(in.tau);
  for (std::size_t i = 0; i < in.specs.size(); ++i) {
    const hpcs::batch::JobSpec& spec = in.specs[i];
    const ReplayJobOutcome& o = result.jobs[i];
    const int width = std::clamp(spec.nodes, 1, in.width_cap);
    const SimDuration base = std::max<SimDuration>(
        static_cast<SimDuration>(spec.iterations) * spec.grain, 1);
    const SimDuration estimate = spec.estimate > 0 ? spec.estimate : base;
    int queue = -1;
    for (std::size_t q = 0; q < in.queues.size(); ++q) {
      const hpcs::batch::QueueConfig& c = in.queues[q];
      if (width >= c.min_nodes && width <= c.max_nodes &&
          (c.max_walltime == 0 || estimate <= c.max_walltime)) {
        queue = static_cast<int>(q);
        break;
      }
    }
    if (o.queue != queue) {
      r.fail(job_label(i) + " in queue " + std::to_string(o.queue) +
             ", admission limits pick " + std::to_string(queue));
    }
    if (queue < 0) {
      ++rejected;
      continue;
    }
    const SimTime arrival =
        align_up(std::max<SimTime>(spec.arrival, 0), in.cycle);
    if (o.arrival != arrival) {
      r.fail(job_label(i) + " arrival is not align_up(submit)");
    }
    if (o.start < arrival) r.fail(job_label(i) + " starts before arrival");
    if (o.finish <= o.start) r.fail(job_label(i) + " never finished");
    if (o.preempts == 0 && o.finish != align_up(o.start + base, in.cycle)) {
      r.fail(job_label(i) + " finish " + std::to_string(o.finish) +
             " != align_up(start + ideal runtime) " +
             std::to_string(align_up(o.start + base, in.cycle)));
    }
    const double wait_s = hpcs::to_seconds(o.start - arrival);
    const double run_s = hpcs::to_seconds(o.finish - o.start);
    const double slowdown =
        std::max(1.0, (wait_s + run_s) / std::max(run_s, tau_s));
    auto& [sum, count] = user_slowdown[spec.user];
    sum += slowdown;
    ++count;
  }
  if (result.rejected != rejected) {
    r.fail("rejected " + std::to_string(result.rejected) + " != " +
           std::to_string(rejected) + " that no queue admits");
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const auto& [user, acc] : user_slowdown) {
    const double mean = acc.first / acc.second;
    sum += mean;
    sum_sq += mean * mean;
  }
  const double jain =
      sum_sq > 0.0
          ? sum * sum / (static_cast<double>(user_slowdown.size()) * sum_sq)
          : 1.0;
  if (!nearly_equal(result.user_fairness, jain)) {
    r.fail("Jain index " + num(result.user_fairness) + " != recomputed " +
           num(jain));
  }
  return r.done();
}

Failures check_nas(const std::vector<NasRow>& rows) {
  Report r("nas");
  for (const NasRow& row : rows) {
    const std::string name = hpcs::workloads::nas_instance_name(row.instance);
    const double reference = hpcs::workloads::nas_reference_seconds(
        row.instance.bench, row.instance.cls);
    const double floor = reference * (1.0 - kNasBelowReference);
    double std_min = 0.0;
    double hpl_min = 0.0;
    double hpl_max = 0.0;
    for (const auto* series : {&row.std_linux, &row.hpl}) {
      const bool is_hpl = series == &row.hpl;
      if (series->runs.empty() || series->failures != 0) {
        r.fail(name + " has failed or missing runs");
      }
      for (std::size_t k = 0; k < series->runs.size(); ++k) {
        const hpcs::exp::RunResult& run = series->runs[k];
        if (!run.completed) {
          r.fail(name + " run " + std::to_string(k) + " did not complete: " +
                 run.error);
          continue;
        }
        if (run.app_seconds < floor) {
          r.fail(name + " ran " + num(run.app_seconds) +
                 " s, faster than Table II minimum " + num(reference) + " s");
        }
        double& lo = is_hpl ? hpl_min : std_min;
        lo = k == 0 ? run.app_seconds : std::min(lo, run.app_seconds);
        if (is_hpl) hpl_max = std::max(hpl_max, run.app_seconds);
      }
    }
    if (hpl_min > 0.0) {
      const double var_pct = (hpl_max - hpl_min) / hpl_min * 100.0;
      if (var_pct > kNasHplVarPct) {
        r.fail(name + " HPL Var% " + num(var_pct) + " > " +
               num(kNasHplVarPct));
      }
      if (std_min > 0.0 && hpl_min > std_min * (1.0 + kNasHplOverStd)) {
        r.fail(name + " HPL min " + num(hpl_min) + " s > std-linux min " +
               num(std_min) + " s");
      }
    }
  }
  return r.done();
}

Failures check_same_series(const hpcs::exp::Series& a,
                           const hpcs::exp::Series& b) {
  Report r("parallel sweep");
  if (a.runs.size() != b.runs.size() || a.failures != b.failures) {
    r.fail("run counts differ");
    return r.done();
  }
  for (std::size_t k = 0; k < a.runs.size(); ++k) {
    const hpcs::exp::RunResult& x = a.runs[k];
    const hpcs::exp::RunResult& y = b.runs[k];
    if (x.seed != y.seed || x.app_seconds != y.app_seconds ||
        x.context_switches != y.context_switches ||
        x.cpu_migrations != y.cpu_migrations) {
      r.fail("run " + std::to_string(k) + " (seed " + std::to_string(x.seed) +
             ") differs between serial and parallel sweeps");
    }
  }
  return r.done();
}

}  // namespace perfbench

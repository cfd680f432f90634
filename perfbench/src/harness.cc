#include "harness.h"

#include <sys/resource.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "layers.h"
#include "runtime/metrics.h"
#include "runtime/tracing.h"

namespace perfbench {
namespace {

namespace metric = flinkless::runtime::metric;
using flinkless::runtime::SpanKind;

/// Set-up repetitions of a timed run, setup_s being their median: at least
/// kMinSetups, and more while they take less than kSetupBudgetS in total,
/// so that a cheap set-up still gets a steady median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 101;
constexpr double kSetupBudgetS = 1.0;
/// Traced/untraced job pairs of a traced run, at least.
constexpr int kMinOverheadPairs = 2;
/// A timed run measures at least this many jobs and superstep samples.
constexpr size_t kMinTimedJobs = 2;
constexpr size_t kMinSuperstepSamples = 100;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Counts a job and its reads as operations. Jobs after the first must
/// reproduce the first one's deterministic counters and output exactly: a
/// mismatch is a failure, not noise.
void CheckJob(const std::string& label, const JobRun& run,
              const JobRun* reference, Outcome* outcome) {
  outcome->Op(run.ok, label + ": " + run.error);
  outcome->attempted += run.read_ops;
  if (run.read_ops_failed > 0) {
    outcome->failed += run.read_ops_failed;
    outcome->problems.push_back(label + ": " +
                                std::to_string(run.read_ops_failed) +
                                " read operation(s) failed");
  }
  if (reference == nullptr || !run.ok || !reference->ok) return;
  std::string drift;
  if (run.sim_ns != reference->sim_ns) drift += " sim_job_ms";
  if (run.supersteps != reference->supersteps) drift += " supersteps";
  if (run.output_digest != reference->output_digest) drift += " output";
  if (!drift.empty()) outcome->Fail(label + ": deterministic drift in" + drift);
}

void PrintJob(const std::string& label, const JobRun& run) {
  std::printf(
      "%-18s job %8.3f s  supersteps %4d  sim %10.3f ms  read p50 %8.3f us"
      "  %s\n",
      label.c_str(), run.job_s, run.supersteps,
      static_cast<double>(run.sim_ns) / 1e6, Quantile(run.read_us, 0.5),
      run.ok ? "ok" : run.error.c_str());
}

}  // namespace

Report RunTimed(const std::string& name, const WorkloadFactory& make,
                const Options& options) {
  Report report;
  Outcome& outcome = report.outcome;

  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (setup_total_s < kSetupBudgetS &&
          static_cast<int>(setup_s.size()) < kMaxSetups)) {
    workload.reset();
    workload = make();
    const int64_t t0 = NowNs();
    workload->Setup(options.seed);
    setup_s.push_back(SecondsSince(t0));
    setup_total_s += setup_s.back();
  }
  workload->BuildOracle();
  workload->Calibrate(&outcome);

  // The failure-free baseline warms the allocator and caches and is not
  // timed; the measured jobs continue until --seconds have passed and
  // enough samples exist.
  const int64_t start = NowNs();
  RunConfig baseline_config;
  baseline_config.baseline = true;
  const JobRun baseline = workload->Run(baseline_config);
  PrintJob("baseline (warm-up)", baseline);
  CheckJob("baseline", baseline, nullptr, &outcome);
  JobRun first;
  std::vector<double> job_s;
  std::vector<double> superstep_ms;
  std::vector<double> read_us_p50;
  size_t read_samples = 0;
  for (int i = 1;; ++i) {
    JobRun run = workload->Run(RunConfig{});
    const std::string label = "job " + std::to_string(i);
    PrintJob(label, run);
    CheckJob(label, run, i == 1 ? nullptr : &first, &outcome);
    if (i == 1) first = run;
    job_s.push_back(run.job_s);
    superstep_ms.insert(superstep_ms.end(), run.superstep_ms.begin(),
                        run.superstep_ms.end());
    // The read median per job (each job has thousands of reads), then the
    // median over the jobs: a noisy job cannot move it alone.
    if (!run.read_us.empty()) {
      read_us_p50.push_back(Quantile(run.read_us, 0.5));
    }
    read_samples += run.read_us.size();
    if (job_s.size() >= kMinTimedJobs &&
        superstep_ms.size() >= kMinSuperstepSamples &&
        SecondsSince(start) >= options.seconds) {
      break;
    }
  }

  std::printf("%s: %zu timed jobs, %zu superstep samples, %zu read samples\n",
              name.c_str(), job_s.size(), superstep_ms.size(), read_samples);
  std::printf("setup_s: %zu samples, quartiles %.6f %.6f %.6f s\n",
              setup_s.size(), Quantile(setup_s, 0.25), Quantile(setup_s, 0.5),
              Quantile(setup_s, 0.75));
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("job_s", Median(job_s), "s");
  report.Add("superstep_ms_p50", Quantile(superstep_ms, 0.5), "ms");
  report.Add("sim_job_ms", static_cast<double>(first.sim_ns) / 1e6, "ms");
  // Fault-tolerance overhead in the modelled cluster: what checkpoints,
  // logs, recovery and the supersteps needed to converge again add to the
  // failure-free run without fault tolerance.
  report.Add("sim_ft_ms",
             static_cast<double>(first.sim_ns - baseline.sim_ns) / 1e6, "ms");
  report.Add("supersteps", first.supersteps, "count");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("read_us_p50", Median(read_us_p50), "us");
  return report;
}

Report RunTraced(const std::string& name, const WorkloadFactory& make,
                 const Options& options) {
  Report report;
  Outcome& outcome = report.outcome;

  std::unique_ptr<Workload> workload = make();
  workload->Setup(options.seed);
  workload->BuildOracle();
  workload->Calibrate(&outcome);

  // A: the untraced, unwrapped job every other run must reproduce.
  const JobRun a = workload->Run(RunConfig{});
  PrintJob("untraced", a);
  CheckJob("untraced", a, nullptr, &outcome);
  // Tail latencies of the untraced jobs (A and the untraced half
  // of every pair). Their run-to-run spread is too wide to gate them as
  // end-to-end metrics, so they are reported here, ungated.
  std::vector<double> tail_superstep_ms = a.superstep_ms;
  // A is the first job: without a server, nothing was published for it to
  // read yet.
  std::vector<double> tail_read_us_p99;
  if (!a.read_us.empty()) {
    tail_read_us_p99.push_back(Quantile(a.read_us, 0.99));
  }

  // T: traced, metrics v2 on, policy and compensation wrapped in the timing
  // decorators. Matching A is the decorators' self-check.
  RunConfig traced_config;
  traced_config.wrap = true;
  flinkless::runtime::MetricsSink sink;
  traced_config.sink = &sink;
  traced_config.trace = true;
  JobRun t = workload->Run(traced_config);
  const LayerFold fold = FoldLayers(t);
  t.timelines.clear();
  PrintJob("traced", t);
  CheckJob("traced+wrapped", t, &a, &outcome);
  PrintLayerFold(name, fold);
  outcome.Op(fold.violations == 0 && fold.dropped_events == 0,
             "layer-sum check: " + std::to_string(fold.violations) +
                 " window(s) off, " + std::to_string(fold.dropped_events) +
                 " events dropped; " + fold.first_violation);
  const flinkless::runtime::MetricsSnapshot counters = sink.Collect();

  // S: the serial baseline, wrapped, one executor thread.
  RunConfig serial_config;
  serial_config.threads = 1;
  serial_config.wrap = true;
  const JobRun s = workload->Run(serial_config);
  PrintJob("1 thread", s);
  CheckJob("1 thread", s, &a, &outcome);

  // B: failure-free baseline, for the supersteps the failures cost.
  RunConfig baseline_config;
  baseline_config.baseline = true;
  const JobRun b = workload->Run(baseline_config);
  PrintJob("no failure", b);
  CheckJob("no failure", b, nullptr, &outcome);

  // Paired untraced/traced jobs, alternating which runs first, for half of
  // --seconds (the traced run already spends about as long on A, T, S, B).
  const int64_t pairs_start = NowNs();
  std::vector<double> untraced_s = {a.job_s};
  std::vector<double> overhead_pct;
  for (int pair = 0;; ++pair) {
    double job_s[2] = {0.0, 0.0};  // [untraced, traced]
    for (int k = 0; k < 2; ++k) {
      const bool traced = (k == 0) == (pair % 2 == 1);
      RunConfig config;
      config.trace = traced;
      const JobRun run = workload->Run(config);
      const std::string label =
          std::string(traced ? "traced" : "untraced") + " pair " +
          std::to_string(pair);
      PrintJob(label, run);
      CheckJob(label, run, &a, &outcome);
      job_s[traced ? 1 : 0] = run.job_s;
      if (!traced) {
        tail_superstep_ms.insert(tail_superstep_ms.end(),
                                 run.superstep_ms.begin(),
                                 run.superstep_ms.end());
        if (!run.read_us.empty()) {
          tail_read_us_p99.push_back(Quantile(run.read_us, 0.99));
        }
      }
    }
    untraced_s.push_back(job_s[0]);
    overhead_pct.push_back(100.0 * (job_s[1] / job_s[0] - 1.0));
    if (pair + 1 >= kMinOverheadPairs &&
        SecondsSince(pairs_start) >= options.seconds / 2.0) {
      break;
    }
  }

  // Per-layer calls on the workload's own converged data.
  MeasureLayerCalls(workload->LayerInputs(), &report);

  auto counter = [&](const char* name) {
    return static_cast<double>(counters.CounterTotal(name));
  };
  const double cache_hits = counter(metric::kCacheHits);
  const double cache_builds = counter(metric::kCacheBuilds);
  const double batch_ops = counter(metric::kExecBatchOps);
  const double row_ops = counter(metric::kExecRowFallbackOps);

  report.Add("iteration.records_processed",
             static_cast<double>(t.records_processed), "count");
  report.Add("iteration.messages_shuffled",
             static_cast<double>(t.messages_shuffled), "count");
  report.Add("iteration.solution_update_ms", fold.Self(SpanKind::kSolutionUpdate),
             "ms");
  report.Add("iteration.driver_other_ms", fold.other_ms, "ms");
  report.Add("iteration.extra_supersteps", a.supersteps - b.supersteps,
             "count");
  report.Add("iteration.superstep_ms_p90", Quantile(tail_superstep_ms, 0.9),
             "ms");
  report.Add("core.policy.start_ms", t.policy_start.ms(), "ms");
  report.Add("core.policy.after_iteration_ms",
             t.policy_after_iteration.ms(), "ms");
  report.Add("core.policy.on_failure_ms", t.policy_on_failure.ms(), "ms");
  report.Add("core.compensation_ms", t.compensation.ms(), "ms");
  report.Add("core.compensation_records",
             counter(metric::kCompensationRecords), "count");
  report.Add("dataflow.operator_ms", fold.Self(SpanKind::kOperator), "ms");
  report.Add("dataflow.shuffle_scatter_ms", fold.Self(SpanKind::kShuffleScatter),
             "ms");
  report.Add("dataflow.shuffle_gather_ms", fold.Self(SpanKind::kShuffleGather),
             "ms");
  report.Add("dataflow.cache_hit_ratio",
             Ratio(cache_hits, cache_hits + cache_builds), "ratio");
  report.Add("dataflow.row_fallback_ratio",
             Ratio(row_ops, row_ops + batch_ops), "ratio");
  report.Add("runtime.pool.speedup", Ratio(s.job_s, Median(untraced_s)),
             "ratio");
  report.Add("runtime.pool.parallel_sections",
             counter(metric::kPoolParallelSections), "count");
  report.Add("runtime.storage.bytes_written",
             static_cast<double>(t.storage_bytes_written), "bytes");
  report.Add("runtime.storage.bytes_read",
             static_cast<double>(t.storage_bytes_read), "bytes");
  report.Add("runtime.storage.writes", static_cast<double>(t.storage_writes),
             "count");
  report.Add("runtime.msglog.bytes", counter(metric::kMsglogBytes), "bytes");
  report.Add("runtime.msglog.append_ms", fold.Self(SpanKind::kMessageLogAppend), "ms");
  report.Add("runtime.msglog.replay_ms", fold.Self(SpanKind::kMessageLogReplay), "ms");
  report.Add("runtime.memory.peak_resident_bytes",
             static_cast<double>(t.memory.peak_resident_bytes), "bytes");
  report.Add("runtime.memory.budget_bytes",
             static_cast<double>(t.memory_budget), "bytes");
  report.Add("runtime.memory.spills", static_cast<double>(t.memory.spills),
             "count");
  report.Add("runtime.memory.unspills",
             static_cast<double>(t.memory.unspills), "count");
  report.Add("runtime.memory.spill_ms",
             fold.Self(SpanKind::kCacheSpill) +
                 fold.Self(SpanKind::kCacheUnspill), "ms");
  report.Add("runtime.tracing.overhead_pct", Median(overhead_pct), "%");
  report.Add("server.publish_ms",
             fold.Self(SpanKind::kServerPublish) + t.publish_ms, "ms");
  report.Add("server.read_us_p99", Median(tail_read_us_p99), "us");
  report.Add("server.read_hit_ratio",
             Ratio(static_cast<double>(t.read_found),
                   static_cast<double>(t.read_keys)),
             "ratio");
  report.Add("server.read_refused_ratio",
             Ratio(static_cast<double>(t.read_refused),
                   static_cast<double>(t.read_attempts)),
             "ratio");
  report.Add("server.answered_during_recovery",
             static_cast<double>(t.answered_during_recovery), "count");
  return report;
}

}  // namespace perfbench

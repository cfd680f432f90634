// Runtime services for one job of an iteration driver, shared by the
// workloads that run BulkIterationDriver / DeltaIterationDriver directly:
// a fresh SimClock, StableStorage and MetricsRegistry, an unbudgeted
// MemoryManager passed through JobEnv (so its stats() are readable from
// outside), the failure schedule, and a tracer when the run is traced.

#ifndef PERFBENCH_DRIVER_JOB_H_
#define PERFBENCH_DRIVER_JOB_H_

#include <memory>
#include <string>

#include "common/logging.h"
#include "dataflow/executor.h"
#include "iteration/context.h"
#include "runtime/cost_model.h"
#include "runtime/failure.h"
#include "runtime/memory_manager.h"
#include "runtime/metrics.h"
#include "runtime/sim_clock.h"
#include "runtime/stable_storage.h"
#include "workload.h"

namespace perfbench {

class DriverJob {
 public:
  /// `failures` is the workload's schedule (FailureSchedule::Parse syntax);
  /// a baseline run gets none.
  DriverJob(const RunConfig& config, const std::string& failures,
            const std::string& job_id)
      : storage_(&clock_, &costs_), memory_(0) {
    memory_.set_metrics(config.sink);
    if (config.trace) tracing_ = std::make_unique<TracerWithOffset>();
    flinkless::runtime::Tracer* tracer =
        tracing_ ? &tracing_->tracer : nullptr;
    if (!config.baseline) {
      auto parsed = flinkless::runtime::FailureSchedule::Parse(failures);
      FLINKLESS_CHECK(parsed.ok(), parsed.status().ToString());
      failures_ = *parsed;
    }
    env_.clock = &clock_;
    env_.costs = &costs_;
    env_.storage = &storage_;
    env_.metrics = &registry_;
    env_.failures = &failures_;
    env_.tracer = tracer;
    env_.metrics_sink = config.sink;
    env_.memory = &memory_;
    env_.job_id = job_id;
    exec_.num_partitions = kPartitions;
    exec_.num_threads = config.threads;
    exec_.clock = &clock_;
    exec_.costs = &costs_;
    exec_.tracer = tracer;
  }

  DriverJob(const DriverJob&) = delete;
  DriverJob& operator=(const DriverJob&) = delete;

  const flinkless::iteration::JobEnv& env() const { return env_; }
  const flinkless::dataflow::ExecOptions& exec() const { return exec_; }

  /// Fills `run` with what the services recorded: the tracer's spans, the
  /// superstep walls (IterationStats::wall_time_ns), the SimClock total and
  /// the IterationStats, StableStorage and MemoryManager counters.
  void Collect(JobRun* run) const {
    if (tracing_) run->timelines.push_back(tracing_->Flush());
    for (const flinkless::runtime::IterationStats& s : registry_.iterations()) {
      run->superstep_ms.push_back(static_cast<double>(s.wall_time_ns) / 1e6);
      run->superstep_wall_ns.push_back(s.wall_time_ns);
    }
    run->sim_ns = clock_.TotalNs();
    run->records_processed = registry_.TotalRecords();
    run->messages_shuffled = registry_.TotalMessages();
    run->storage_bytes_written = storage_.bytes_written();
    run->storage_bytes_read = storage_.bytes_read();
    run->storage_writes = storage_.num_writes();
    run->memory = memory_.stats();
    run->memory_budget = memory_.budget_bytes();
  }

 private:
  flinkless::runtime::SimClock clock_;
  flinkless::runtime::CostModel costs_;
  flinkless::runtime::StableStorage storage_;
  flinkless::runtime::MetricsRegistry registry_;
  flinkless::runtime::MemoryManager memory_;
  flinkless::runtime::FailureSchedule failures_;
  std::unique_ptr<TracerWithOffset> tracing_;
  flinkless::iteration::JobEnv env_;
  flinkless::dataflow::ExecOptions exec_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_JOB_H_

#include "iteration/delta_iteration.h"

#include <algorithm>
#include <array>
#include <memory>

#include "common/logging.h"
#include "dataflow/exec_cache.h"
#include "runtime/message_log.h"

namespace flinkless::iteration {

using dataflow::PartitionedDataset;
using dataflow::Record;

DeltaIterationDriver::DeltaIterationDriver(const dataflow::Plan* step_plan,
                                           dataflow::Bindings static_bindings,
                                           DeltaIterationConfig config,
                                           dataflow::ExecOptions exec_options,
                                           JobEnv env)
    : step_plan_(step_plan),
      static_bindings_(std::move(static_bindings)),
      config_(std::move(config)),
      exec_options_(exec_options),
      env_(std::move(env)) {
  FLINKLESS_CHECK(step_plan_ != nullptr, "delta driver needs a step plan");
}

Result<DeltaIterationResult> DeltaIterationDriver::Run(
    std::vector<Record> initial_solution, PartitionedDataset initial_workset,
    FaultTolerancePolicy* policy) {
  FLINKLESS_CHECK(policy != nullptr, "delta driver needs a policy");
  const int n = exec_options_.num_partitions;
  if (initial_workset.num_partitions() != n) {
    return Status::InvalidArgument(
        "initial workset has " +
        std::to_string(initial_workset.num_partitions()) +
        " partitions, executor expects " + std::to_string(n));
  }

  std::unique_ptr<runtime::Cluster> own_cluster;
  if (env_.cluster == nullptr) {
    own_cluster =
        std::make_unique<runtime::Cluster>(n, env_.clock, env_.costs);
    env_.cluster = own_cluster.get();
  }
  std::unique_ptr<runtime::MetricsRegistry> own_metrics;
  if (env_.metrics == nullptr) {
    own_metrics = std::make_unique<runtime::MetricsRegistry>();
    env_.metrics = own_metrics.get();
  }

  // The tracer may arrive via either the env or the exec options; make both
  // agree so the executor and the driver record into the same timeline.
  if (exec_options_.tracer == nullptr) exec_options_.tracer = env_.tracer;
  runtime::Tracer* tracer = exec_options_.tracer;

  // Metrics v2 flows the same two ways; either injection point wins and
  // every layer (executor, cache, memory manager, driver) records into the
  // same sink.
  if (exec_options_.metrics == nullptr) {
    exec_options_.metrics = env_.metrics_sink;
  }
  runtime::MetricsSink* metrics = exec_options_.metrics;

  // Loop-invariant cache for this run: the workset and solution bindings
  // are rebound every superstep; everything derived purely from the static
  // bindings is shuffled/indexed once and reused (DESIGN.md §10).
  // Budgeted residency for the cached artifacts (DESIGN.md §11): cold
  // entries spill to the job's stable storage once serialized residency
  // exceeds memory_budget_bytes. Attached even with an unlimited budget so
  // peak residency is always measured (no spills happen then). Declared
  // before the cache: the cache unregisters its segments on destruction.
  // A JobEnv-supplied manager (the multi-job server's shared budget) wins
  // over the private one; its metrics sink is the server's to set, so only
  // the private manager is wired to this run's sink here.
  runtime::MemoryManager own_memory(exec_options_.memory_budget_bytes);
  own_memory.set_metrics(metrics);
  runtime::MemoryManager& memory =
      env_.memory != nullptr ? *env_.memory : own_memory;
  dataflow::ExecCache cache(std::vector<std::string>{
      config_.workset_binding, config_.solution_binding});
  cache.set_metrics(metrics);
  dataflow::ExecOptions exec_opts = exec_options_;
  if (config_.cache_loop_invariant && exec_opts.cache == nullptr) {
    exec_opts.cache = &cache;
  }
  if (exec_opts.cache == &cache && env_.storage != nullptr) {
    cache.AttachMemoryManager(&memory, env_.storage, env_.job_id);
  }
  // Outbound message log for confined-log recovery (DESIGN.md §14). Both
  // the workset and the solution binding vary between supersteps. Declared
  // after `memory`: the log unregisters its segments on destruction.
  std::unique_ptr<runtime::MessageLog> msglog;
  if (config_.message_log) {
    msglog = std::make_unique<runtime::MessageLog>(std::vector<std::string>{
        config_.workset_binding, config_.solution_binding});
    msglog->set_metrics(metrics);
    if (env_.storage != nullptr) {
      msglog->AttachMemoryManager(&memory, env_.storage, env_.job_id);
    }
    exec_opts.message_log = msglog.get();
  }
  dataflow::Executor executor(exec_opts);

  // Assigned after the state exists (below); make_ctx reads it at call
  // time, so OnJobStart sees an empty hook only if logging is off.
  std::function<Status(const std::vector<int>&)> replay_messages;

  auto make_ctx = [&](int iteration) {
    IterationContext ctx;
    ctx.iteration = iteration;
    ctx.num_partitions = n;
    ctx.clock = env_.clock;
    ctx.costs = env_.costs;
    ctx.storage = env_.storage;
    ctx.cluster = env_.cluster;
    ctx.pool = executor.pool();
    ctx.tracer = tracer;
    ctx.job_id = env_.job_id;
    ctx.replay_messages = replay_messages;
    return ctx;
  };

  const std::vector<Record> initial_solution_copy = initial_solution;
  const PartitionedDataset initial_workset_copy = initial_workset;

  DeltaState state(
      SolutionSet::FromRecords(std::move(initial_solution),
                               config_.solution_key, n),
      std::move(initial_workset));

  // Confined-log replay hook: recompute the failed superstep's delta and
  // next workset for the lost partitions from the logged channels, then
  // re-apply them. Survivors already applied the full pre-failure delta
  // (ApplyDelta ran before the failure fired), so replayed delta records
  // are upserted only into lost partitions. Assumes the delta output is
  // co-partitioned by solution_key (see DeltaIterationConfig::message_log).
  uint64_t messages_replayed_acc = 0;
  if (msglog != nullptr) {
    replay_messages = [&](const std::vector<int>& lost) -> Status {
      std::vector<bool> is_lost(n, false);
      for (int p : lost) is_lost[p] = true;
      dataflow::ExecStats rstats;
      FLINKLESS_ASSIGN_OR_RETURN(
          auto replayed,
          executor.Replay(*step_plan_, static_bindings_, lost, msglog.get(),
                          &rstats));
      auto delta_it = replayed.find(config_.delta_output);
      if (delta_it == replayed.end()) {
        return Status::NotFound("step plan has no output '" +
                                config_.delta_output + "'");
      }
      auto workset_it = replayed.find(config_.next_workset_output);
      if (workset_it == replayed.end()) {
        return Status::NotFound("step plan has no output '" +
                                config_.next_workset_output + "'");
      }
      for (int p : lost) {
        for (Record& record : delta_it->second.partition(p)) {
          const int target = PartitionedDataset::PartitionOf(
              record, config_.solution_key, n);
          if (!is_lost[target]) continue;  // survivor: already applied
          state.solution().UpsertIntoPartition(target, std::move(record));
        }
        state.workset().partition(p) =
            std::move(workset_it->second.partition(p));
      }
      messages_replayed_acc += rstats.messages_replayed;
      return Status::OK();
    };
  }

  auto storage_bytes = [&]() -> uint64_t {
    return env_.storage != nullptr ? env_.storage->bytes_written() : 0;
  };

  {
    uint64_t start_bytes_before = storage_bytes();
    runtime::TraceSpan start_span(tracer, runtime::SpanKind::kCheckpoint,
                                  policy->name());
    FLINKLESS_RETURN_NOT_OK(policy->OnJobStart(make_ctx(0), &state));
    uint64_t bytes = storage_bytes() - start_bytes_before;
    if (bytes > 0) {
      start_span.AddArg("bytes", static_cast<int64_t>(bytes));
      // Account the initial checkpoint like the bulk driver does — this
      // was silently missing here, so delta runs under-reported their
      // checkpoint overhead by one full snapshot.
      env_.metrics->IncrCounter("initial_checkpoint_bytes", bytes);
      if (metrics != nullptr) {
        metrics->Count(runtime::metric::kInitialCheckpointBytes, -1, bytes);
      }
    } else {
      start_span.Cancel();  // the policy wrote nothing at job start
    }
  }

  if (config_.epoch_hook) {
    EpochInfo info;
    info.event = EpochEvent::kJobStart;
    info.epoch = 0;
    info.state = &state;
    config_.epoch_hook(info);
  }

  // Running count of failure-schedule ids dropped for being out of range
  // (see the sanitization below) — exported as a gauge so a typo'd --fail
  // spec is visible in the metrics report, not just the log.
  uint64_t dropped_failure_ids = 0;

  DeltaIterationResult result;
  const int max_supersteps =
      config_.max_iterations * std::max(1, config_.max_total_supersteps_factor);

  int iteration = 1;
  while (iteration <= config_.max_iterations) {
    if (state.workset().NumRecords() == 0) {
      result.converged = true;
      break;
    }
    if (result.supersteps_executed >= max_supersteps) {
      return Status::Aborted("job '" + env_.job_id + "' exceeded " +
                             std::to_string(max_supersteps) +
                             " supersteps (recovery loop?); aborting");
    }
    ++result.supersteps_executed;

    const int64_t sim_before =
        env_.clock != nullptr ? env_.clock->TotalNs() : 0;
    std::array<int64_t, runtime::kNumCharges> charges_before{};
    if (env_.clock != nullptr) {
      for (int c = 0; c < runtime::kNumCharges; ++c) {
        charges_before[c] = env_.clock->Of(static_cast<runtime::Charge>(c));
      }
    }
    runtime::WallTimer wall;
    const runtime::MemoryManager::Stats mem_before = memory.stats();

    if (tracer != nullptr) tracer->set_iteration(iteration);
    runtime::TraceSpan iter_span(tracer, runtime::SpanKind::kIteration,
                                 "superstep");
    if (iter_span.active()) {
      iter_span.AddArg("iteration", iteration);
      iter_span.AddArg("workset",
                       static_cast<int64_t>(state.workset().NumRecords()));
    }

    // Rotate the message log: confined-log recovery only ever replays the
    // superstep that failed, so earlier channels (and their spilled blobs)
    // are dropped before this superstep appends its own.
    if (msglog != nullptr) msglog->BeginSuperstep(iteration);
    const uint64_t replayed_before = messages_replayed_acc;

    dataflow::ExecStats exec_stats;
    uint64_t updates = 0;
    // The snapshot outlives the epoch hook on purpose: freed before a
    // server publish, its records' memory is reused for the read view's
    // entries, which then scatter and slow every later read.
    PartitionedDataset solution_ds =
        state.solution().ToDataset(executor.pool());
    {
      // Scoped so the step's bindings and outputs are destroyed inside the
      // timed superstep, not after wall_time_ns is taken.
      dataflow::Bindings bindings = static_bindings_;
      bindings[config_.workset_binding] = &state.workset();
      bindings[config_.solution_binding] = &solution_ds;

      FLINKLESS_ASSIGN_OR_RETURN(
          auto outputs, executor.Execute(*step_plan_, bindings, &exec_stats));
      auto delta_it = outputs.find(config_.delta_output);
      if (delta_it == outputs.end()) {
        return Status::NotFound("step plan has no output '" +
                                config_.delta_output + "'");
      }
      auto workset_it = outputs.find(config_.next_workset_output);
      if (workset_it == outputs.end()) {
        return Status::NotFound("step plan has no output '" +
                                config_.next_workset_output + "'");
      }

      // Upsert the delta into the solution set (selective update, §2.1),
      // partition-parallel on the executor's pool: deltas scatter by key
      // hash and every partition applies its own shard against its own
      // version clock, so there is no shared counter to serialize on.
      updates = state.solution().ApplyDelta(std::move(delta_it->second),
                                            executor.pool(), tracer);
      state.workset() = std::move(workset_it->second);
    }

    // Superstep boundary: no cached entry is in use any more, so enforce
    // the budget with no exemption — cold artifacts (even the one touched
    // last) spill now rather than occupying residency across supersteps.
    FLINKLESS_RETURN_NOT_OK(memory.EnforceBudget(nullptr, tracer));

    runtime::IterationStats istats;
    istats.iteration = iteration;
    istats.records_processed = exec_stats.records_processed;
    istats.messages_shuffled = exec_stats.messages_shuffled;
    for (const auto& [op_name, count] : exec_stats.node_output_counts) {
      istats.gauges["out:" + op_name] = static_cast<double>(count);
    }
    istats.gauges["batch_ops"] = static_cast<double>(exec_stats.batch_ops);
    istats.gauges["row_fallback_ops"] =
        static_cast<double>(exec_stats.row_fallback_ops);
    istats.gauges["solution_updates"] = static_cast<double>(updates);
    istats.gauges["workset_size"] =
        static_cast<double>(state.workset().NumRecords());
    if (iter_span.active()) {
      iter_span.AddArg("records",
                       static_cast<int64_t>(exec_stats.records_processed));
      iter_span.AddArg("messages",
                       static_cast<int64_t>(exec_stats.messages_shuffled));
      iter_span.AddArg("solution_updates", static_cast<int64_t>(updates));
    }

    std::vector<int> lost =
        env_.failures != nullptr ? env_.failures->Fire(iteration)
                                 : std::vector<int>{};
    // Sanitize the schedule: same-iteration events may repeat a partition
    // (dedupe — killing a worker twice is one failure), and hand-written
    // --fail specs may name partitions the job does not have (drop, but
    // loudly: a typo'd spec that silently fails nothing would make a
    // recovery experiment vacuously green).
    std::sort(lost.begin(), lost.end());
    lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
    const size_t in_range_before = lost.size();
    lost.erase(std::remove_if(lost.begin(), lost.end(),
                              [&](int p) { return p < 0 || p >= n; }),
               lost.end());
    if (const size_t dropped = in_range_before - lost.size(); dropped > 0) {
      dropped_failure_ids += dropped;
      FLOG_WARN("job '" << env_.job_id << "': failure schedule names "
                        << dropped << " partition id(s) outside [0, " << n
                        << ") at iteration " << iteration
                        << "; dropping them");
      if (metrics != nullptr) {
        metrics->SetGauge(runtime::metric::kGaugeRecoveryDroppedIds, -1,
                          static_cast<double>(dropped_failure_ids));
      }
    }

    uint64_t cp_before = storage_bytes();
    int executed_iteration = iteration;

    if (!lost.empty()) {
      istats.failure_injected = true;
      ++result.failures_recovered;
      if (metrics != nullptr) {
        for (int p : lost) {
          metrics->Count(runtime::metric::kRecoveryPartitionsLost, p);
        }
      }
      if (tracer != nullptr) {
        tracer->Instant(runtime::InstantKind::kFailureInjected, -1,
                        {{"iteration", iteration},
                         {"partitions", static_cast<int64_t>(lost.size())}});
        for (int p : lost) {
          tracer->Instant(runtime::InstantKind::kPartitionLost, p);
        }
      }
      env_.cluster->KillPartitions(lost);
      for (int p : lost) state.ClearPartition(p);
      FLINKLESS_RETURN_NOT_OK(env_.cluster->ReassignToFreshWorkers(lost));
      // Cached artifacts are hash-partitioned: losing any partition means
      // the fresh workers need a full re-scatter, so drop everything —
      // spilled entries and their blobs included, so recovery re-pays the
      // rebuild instead of reloading stale state; the next superstep
      // rebuilds from the (static) bindings.
      if (exec_opts.cache != nullptr) exec_opts.cache->Invalidate(lost);
      if (config_.epoch_hook) {
        // Mid-recovery service point: the state is inconsistent (partitions
        // cleared, nothing restored yet) — observers keep serving their
        // previously published epoch.
        EpochInfo info;
        info.event = EpochEvent::kFailureDetected;
        info.epoch = iteration;
        info.state = &state;
        info.lost = &lost;
        config_.epoch_hook(info);
      }
      runtime::TraceSpan comp_span(tracer, runtime::SpanKind::kCompensation,
                                   policy->name());
      if (comp_span.active()) {
        comp_span.AddArg("lost_partitions",
                         static_cast<int64_t>(lost.size()));
      }
      FLINKLESS_ASSIGN_OR_RETURN(
          RecoveryOutcome outcome,
          policy->OnFailure(make_ctx(iteration), &state, lost));
      comp_span.Close();
      switch (outcome.action) {
        case RecoveryAction::kContinue:
          ++iteration;
          break;
        case RecoveryAction::kRewind:
          if (outcome.rewind_to_iteration < 0 ||
              outcome.rewind_to_iteration > iteration) {
            return Status::Internal(
                "policy rewound to invalid iteration " +
                std::to_string(outcome.rewind_to_iteration));
          }
          iteration = outcome.rewind_to_iteration + 1;
          break;
        case RecoveryAction::kRestart:
          state = DeltaState(
              SolutionSet::FromRecords(initial_solution_copy,
                                       config_.solution_key, n),
              initial_workset_copy);
          iteration = 1;
          break;
        case RecoveryAction::kAbort:
          return Status::DataLoss("policy '" + policy->name() +
                                  "' aborted after losing partitions at "
                                  "iteration " +
                                  std::to_string(iteration));
      }
      if (metrics != nullptr) {
        // Entries now standing in the lost solution partitions: what the
        // recovery action (compensation, checkpoint restore, or restart)
        // put back.
        for (int p : lost) {
          const uint64_t repaired = state.solution().PartitionSize(p);
          metrics->Count(runtime::metric::kCompensationRecords, p, repaired);
          metrics->Observe(runtime::metric::kHistCompensationRecords,
                           static_cast<int64_t>(repaired));
        }
      }
    } else {
      runtime::TraceSpan cp_span(tracer, runtime::SpanKind::kCheckpoint,
                                 policy->name());
      FLINKLESS_RETURN_NOT_OK(
          policy->AfterIteration(make_ctx(iteration), &state));
      uint64_t cp_bytes = storage_bytes() - cp_before;
      if (cp_bytes > 0) {
        cp_span.AddArg("bytes", static_cast<int64_t>(cp_bytes));
        cp_span.Close();
      } else {
        cp_span.Cancel();  // nothing written — don't clutter the trace
      }
      ++iteration;
    }

    istats.bytes_checkpointed = storage_bytes() - cp_before;
    if (messages_replayed_acc > replayed_before) {
      istats.gauges["messages_replayed"] =
          static_cast<double>(messages_replayed_acc - replayed_before);
    }
    // Refresh the workset gauge: recovery may have repopulated it.
    istats.gauges["workset_size"] =
        static_cast<double>(state.workset().NumRecords());
    if (config_.stats_hook) {
      config_.stats_hook(executed_iteration, state.solution(),
                         state.workset(), &istats);
    }
    istats.sim_time_ns =
        env_.clock != nullptr ? env_.clock->TotalNs() - sim_before : 0;
    if (env_.clock != nullptr) {
      for (int c = 0; c < runtime::kNumCharges; ++c) {
        istats.sim_time_by_charge[c] =
            env_.clock->Of(static_cast<runtime::Charge>(c)) -
            charges_before[c];
      }
    }
    istats.spills = memory.stats().spills - mem_before.spills;
    istats.unspills = memory.stats().unspills - mem_before.unspills;
    istats.spilled_bytes =
        memory.stats().spilled_bytes - mem_before.spilled_bytes;
    istats.peak_resident_bytes = memory.stats().peak_resident_bytes;
    istats.wall_time_ns = wall.ElapsedNs();
    env_.metrics->RecordIteration(std::move(istats));

    result.iterations = std::max(result.iterations, executed_iteration);

    if (config_.epoch_hook) {
      // Consistent superstep boundary. After the recovery switch the state
      // corresponds to iteration - 1 regardless of the action taken
      // (kContinue: the executed superstep; kRewind: the rewind target;
      // kRestart: 0).
      EpochInfo info;
      info.event = lost.empty() ? EpochEvent::kEpochComplete
                                : EpochEvent::kRecoveryComplete;
      info.epoch = iteration - 1;
      info.state = &state;
      info.lost = lost.empty() ? nullptr : &lost;
      config_.epoch_hook(info);
    }
  }

  if (state.workset().NumRecords() == 0) result.converged = true;
  if (result.converged && tracer != nullptr) {
    tracer->Instant(runtime::InstantKind::kConvergenceReached, -1,
                    {{"iteration", result.iterations}});
  }
  if (metrics != nullptr) {
    // End-of-run per-partition solution size — the balance the hash
    // partitioner achieved.
    for (int p = 0; p < n; ++p) {
      metrics->SetGauge(runtime::metric::kGaugeStateRecords, p,
                        static_cast<double>(state.solution().PartitionSize(p)));
    }
  }
  result.final_solution = std::move(state.solution());
  return result;
}

}  // namespace flinkless::iteration

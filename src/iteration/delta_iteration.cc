#include "iteration/delta_iteration.h"

namespace flinkless::iteration {

using dataflow::PartitionedDataset;
using dataflow::Record;

namespace {

/// Delta part of the superstep loop: the step consumes the workset, upserts
/// its delta into the solution set and produces the next workset.
class DeltaMode final : public IterationMode {
 public:
  DeltaMode(const dataflow::Plan* plan, const dataflow::Bindings* statics,
            const DeltaIterationConfig* config, int num_partitions,
            std::vector<Record> initial_solution,
            PartitionedDataset initial_workset)
      : IterationMode(plan, statics,
                      {config->workset_binding, config->solution_binding},
                      &state_),
        config_(*config),
        n_(num_partitions),
        initial_solution_(initial_solution),
        initial_workset_(initial_workset),
        state_(SolutionSet::FromRecords(std::move(initial_solution),
                                        config_.solution_key, n_),
               std::move(initial_workset)) {}

  SolutionSet& solution() { return state_.solution(); }

  bool Drained() const override { return state_.workset().NumRecords() == 0; }

  Result<bool> Step(const dataflow::Executor& executor,
                    runtime::TraceSpan* span, dataflow::ExecStats* stats,
                    PartitionedDataset* pinned) override {
    span->AddArg("workset",
                 static_cast<int64_t>(state_.workset().NumRecords()));
    // The solution-set snapshot the plan reads outlives the epoch hook on
    // purpose: freed before a server publish, its records' memory is
    // reused for the read view's entries, which then scatter and slow
    // every later read.
    *pinned = state_.solution().ToDataset(executor.pool());
    // The bindings and outputs die when Step returns, inside the timed
    // superstep, not after wall_time_ns is taken.
    dataflow::Bindings bindings = static_bindings;
    bindings[config_.workset_binding] = &state_.workset();
    bindings[config_.solution_binding] = pinned;
    FLINKLESS_ASSIGN_OR_RETURN(PlanOutputs outputs,
                               executor.Execute(plan, bindings, stats));
    FLINKLESS_ASSIGN_OR_RETURN(PartitionedDataset * delta,
                               FindOutput(&outputs, config_.delta_output));
    FLINKLESS_ASSIGN_OR_RETURN(
        PartitionedDataset * workset,
        FindOutput(&outputs, config_.next_workset_output));
    // Upsert the delta into the solution set (selective update, §2.1),
    // partition-parallel on the executor's pool: deltas scatter by key
    // hash and every partition applies its own shard against its own
    // version clock, so there is no shared counter to serialize on.
    updates_ = state_.solution().ApplyDelta(std::move(*delta),
                                            executor.pool(), span->tracer());
    state_.workset() = std::move(*workset);
    return false;
  }

  // Survivors already applied the full pre-failure delta (ApplyDelta ran
  // before the failure fired), so replayed delta records are upserted only
  // into lost partitions. Assumes the delta output is co-partitioned by
  // solution_key (see DeltaIterationConfig).
  Status ApplyReplay(const std::vector<int>& lost,
                     PlanOutputs* replayed) override {
    FLINKLESS_ASSIGN_OR_RETURN(PartitionedDataset * delta,
                               FindOutput(replayed, config_.delta_output));
    FLINKLESS_ASSIGN_OR_RETURN(
        PartitionedDataset * workset,
        FindOutput(replayed, config_.next_workset_output));
    std::vector<bool> is_lost(n_, false);
    for (int p : lost) is_lost[p] = true;
    for (int p : lost) {
      for (Record& record : delta->partition(p)) {
        const int target =
            PartitionedDataset::PartitionOf(record, config_.solution_key, n_);
        if (!is_lost[target]) continue;  // survivor: already applied
        state_.solution().UpsertIntoPartition(target, std::move(record));
      }
      state_.workset().partition(p) = std::move(workset->partition(p));
    }
    return Status::OK();
  }

  void Restart() override {
    state_ = DeltaState(
        SolutionSet::FromRecords(initial_solution_, config_.solution_key, n_),
        initial_workset_);
  }

  uint64_t PartitionSize(int p) const override {
    return state_.solution().PartitionSize(p);
  }

  void FinishSuperstep(int iteration, runtime::IterationStats* stats,
                       runtime::TraceSpan* span) override {
    span->AddArg("solution_updates", static_cast<int64_t>(updates_));
    stats->gauges["solution_updates"] = static_cast<double>(updates_);
    // Taken after recovery, which may have repopulated the workset.
    stats->gauges["workset_size"] =
        static_cast<double>(state_.workset().NumRecords());
    if (config_.stats_hook) {
      config_.stats_hook(iteration, state_.solution(), state_.workset(),
                         stats);
    }
  }

 private:
  const DeltaIterationConfig& config_;
  const int n_;
  const std::vector<Record> initial_solution_;
  const PartitionedDataset initial_workset_;
  DeltaState state_;
  /// Delta records the last step applied to the solution set.
  uint64_t updates_ = 0;
};

}  // namespace

Result<DeltaIterationResult> DeltaIterationDriver::Run(
    std::vector<Record> initial_solution, PartitionedDataset initial_workset,
    FaultTolerancePolicy* policy) {
  const int n = exec_options_.num_partitions;
  if (initial_workset.num_partitions() != n) {
    return Status::InvalidArgument(
        "initial workset has " +
        std::to_string(initial_workset.num_partitions()) +
        " partitions, executor expects " + std::to_string(n));
  }
  DeltaMode mode(step_plan_, &static_bindings_, &config_, n,
                 std::move(initial_solution), std::move(initial_workset));
  DeltaIterationResult result;
  FLINKLESS_RETURN_NOT_OK(RunSuperstepLoop(config_, config_.max_iterations,
                                           exec_options_, env_, &mode, policy,
                                           &result));
  result.final_solution = std::move(mode.solution());
  return result;
}

}  // namespace flinkless::iteration

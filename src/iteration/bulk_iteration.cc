#include "iteration/bulk_iteration.h"

namespace flinkless::iteration {

using dataflow::PartitionedDataset;

namespace {

/// Bulk part of the superstep loop: the step recomputes the whole state.
class BulkMode final : public IterationMode {
 public:
  BulkMode(const dataflow::Plan* plan, const dataflow::Bindings* statics,
           const BulkIterationConfig* config, PartitionedDataset initial)
      : IterationMode(plan, statics, {config->state_binding}, &state_),
        config_(*config),
        initial_(initial),
        state_(std::move(initial)) {}

  PartitionedDataset& data() { return state_.data(); }

  Result<bool> Step(const dataflow::Executor& executor, runtime::TraceSpan*,
                    dataflow::ExecStats* stats,
                    PartitionedDataset*) override {
    PartitionedDataset next;
    {
      // Scoped so the step's bindings and its other outputs are destroyed
      // inside the timed superstep, not after wall_time_ns is taken.
      dataflow::Bindings bindings = static_bindings;
      bindings[config_.state_binding] = &state_.data();
      FLINKLESS_ASSIGN_OR_RETURN(PlanOutputs outputs,
                                 executor.Execute(plan, bindings, stats));
      FLINKLESS_ASSIGN_OR_RETURN(
          PartitionedDataset * out,
          FindOutput(&outputs, config_.next_state_output));
      next = std::move(*out);
    }
    metric_ = 0.0;
    const bool converged = config_.convergence &&
                           config_.convergence(state_.data(), next, &metric_);
    state_.data() = std::move(next);
    return converged;
  }

  Status ApplyReplay(const std::vector<int>& lost,
                     PlanOutputs* replayed) override {
    FLINKLESS_ASSIGN_OR_RETURN(
        PartitionedDataset * next,
        FindOutput(replayed, config_.next_state_output));
    for (int p : lost) {
      state_.data().partition(p) = std::move(next->partition(p));
    }
    return Status::OK();
  }

  void Restart() override { state_ = BulkState(initial_); }

  uint64_t PartitionSize(int p) const override {
    return state_.data().partition(p).size();
  }

  void FinishSuperstep(int iteration, runtime::IterationStats* stats,
                       runtime::TraceSpan*) override {
    if (config_.convergence) stats->gauges["convergence_metric"] = metric_;
    if (config_.stats_hook) config_.stats_hook(iteration, state_.data(), stats);
  }

 private:
  const BulkIterationConfig& config_;
  const PartitionedDataset initial_;
  BulkState state_;
  /// The convergence fn's metric for the last step.
  double metric_ = 0.0;
};

}  // namespace

Result<BulkIterationResult> BulkIterationDriver::Run(
    PartitionedDataset initial, FaultTolerancePolicy* policy) {
  const int n = exec_options_.num_partitions;
  if (initial.num_partitions() != n) {
    return Status::InvalidArgument(
        "initial state has " + std::to_string(initial.num_partitions()) +
        " partitions, executor expects " + std::to_string(n));
  }
  BulkMode mode(step_plan_, &static_bindings_, &config_, std::move(initial));
  BulkIterationResult result;
  FLINKLESS_RETURN_NOT_OK(RunSuperstepLoop(config_, config_.max_iterations,
                                           exec_options_, env_, &mode, policy,
                                           &result));
  result.final_state = std::move(mode.data());
  return result;
}

}  // namespace flinkless::iteration

// The superstep loop both iteration drivers run (DESIGN.md §5, "one
// superstep loop"). Bulk and delta iterations share one runtime and one
// recovery protocol: run a superstep, lose partitions, call the policy,
// compensate or roll back. RunSuperstepLoop owns all of that; an
// IterationMode supplies only what differs between the two kinds — the step
// body, how a confined-log replay lands in the state, restart from the
// initial state, per-partition state size, the drained check and the
// mode's stats and span args.

#ifndef FLINKLESS_ITERATION_SUPERSTEP_LOOP_H_
#define FLINKLESS_ITERATION_SUPERSTEP_LOOP_H_

#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "dataflow/executor.h"
#include "iteration/context.h"
#include "iteration/epoch.h"
#include "iteration/policy.h"
#include "iteration/state.h"

namespace flinkless::iteration {

/// Configuration both iteration kinds share; BulkIterationConfig and
/// DeltaIterationConfig extend it.
struct IterationConfig {
  /// Safety valve against recovery loops: abort if recoveries push the
  /// total executed supersteps beyond this multiple of max_iterations.
  int max_total_supersteps_factor = 20;

  /// Cache loop-invariant plan results (static shuffles, join build-side
  /// indexes) across supersteps. The state bindings are rebound every
  /// superstep; everything derived only from the static bindings is built
  /// once. Outputs are byte-identical either way (exec_cache.h,
  /// DESIGN.md §10).
  bool cache_loop_invariant = true;

  /// Log every shuffled loop-variant channel of the current superstep to an
  /// outbound message log (runtime/message_log.h, DESIGN.md §14) and expose
  /// IterationContext::replay_messages, enabling confined-log recovery
  /// (core::ConfinedLogReplayPolicy). The log rotates at each superstep
  /// boundary — only the most recent superstep's channels are retained —
  /// and shares the driver's memory budget, spilling to stable storage
  /// under pressure. Outputs are byte-identical with the flag on or off.
  bool message_log = false;

  /// Optional superstep-boundary observer (iteration/epoch.h): fired after
  /// OnJobStart (kJobStart), at each consistent superstep boundary
  /// (kEpochComplete / kRecoveryComplete) and mid-recovery
  /// (kFailureDetected). The driver blocks while the hook runs — the job
  /// server parks the job thread here to hand out superstep turns. Empty =
  /// off; the hook never changes outputs, stats, or simulated charges.
  EpochHook epoch_hook;
};

/// Progress fields both iteration results share.
struct IterationProgress {
  /// Highest iteration number reached (the job's logical progress).
  int iterations = 0;
  /// Total supersteps actually executed, counting rollback re-execution.
  int supersteps_executed = 0;
  /// Bulk: the convergence fn accepted a step; delta: the workset drained.
  bool converged = false;
  int failures_recovered = 0;
};

/// Plan outputs by name, as Executor::Execute and Replay return them.
using PlanOutputs = std::map<std::string, dataflow::PartitionedDataset>;

/// The plan output `name`, or NotFound.
Result<dataflow::PartitionedDataset*> FindOutput(PlanOutputs* outputs,
                                                 const std::string& name);

/// The bulk- or delta-specific part of the superstep loop. Owns the
/// iteration state; borrows the step plan and its static bindings.
class IterationMode {
 public:
  IterationMode(const dataflow::Plan* plan,
                const dataflow::Bindings* static_bindings,
                std::vector<std::string> variant_bindings,
                IterationState* state)
      : plan(*plan),
        static_bindings(*static_bindings),
        variant_bindings(std::move(variant_bindings)),
        state(state) {}
  virtual ~IterationMode() = default;

  const dataflow::Plan& plan;
  const dataflow::Bindings& static_bindings;
  /// Source bindings the loop rebinds every superstep; the exec cache and
  /// the message log treat exactly these as loop-variant.
  const std::vector<std::string> variant_bindings;
  /// The state the policy and the epoch hook see (a derived-mode member).
  IterationState* const state;

  /// True when nothing is left to iterate on (a drained delta workset).
  /// Checked before every superstep and once more after the last.
  virtual bool Drained() const { return false; }

  /// Runs the step plan on the current state and installs the next state,
  /// adding the mode's opening args to the superstep `span` (its tracer is
  /// the run's). A dataset the step bound that must outlive the epoch hook
  /// goes into `pinned`, which the loop destroys at the end of the
  /// superstep. Returns whether the step converged.
  virtual Result<bool> Step(const dataflow::Executor& executor,
                            runtime::TraceSpan* span,
                            dataflow::ExecStats* stats,
                            dataflow::PartitionedDataset* pinned) = 0;

  /// Installs the outputs Executor::Replay rebuilt for the `lost`
  /// partitions of the failed superstep.
  virtual Status ApplyReplay(const std::vector<int>& lost,
                             PlanOutputs* replayed) = 0;

  /// Resets the state to the initial one (RecoveryAction::kRestart).
  virtual void Restart() = 0;

  /// Records in partition p of the state (bulk) or of the solution set.
  virtual uint64_t PartitionSize(int p) const = 0;

  /// Adds the mode's gauges to a finished superstep's stats and its closing
  /// args to the superstep span, then runs the config's stats hook.
  /// `iteration` is the superstep that executed.
  virtual void FinishSuperstep(int iteration, runtime::IterationStats* stats,
                               runtime::TraceSpan* span) = 0;
};

/// What both iteration drivers are constructed with. `step_plan` and the
/// datasets referenced by `static_bindings` are borrowed and must outlive
/// the driver.
template <typename Config>
class IterationDriver {
 public:
  IterationDriver(const dataflow::Plan* step_plan,
                  dataflow::Bindings static_bindings, Config config,
                  dataflow::ExecOptions exec_options, JobEnv env)
      : step_plan_(step_plan),
        static_bindings_(std::move(static_bindings)),
        config_(std::move(config)),
        exec_options_(exec_options),
        env_(std::move(env)) {
    FLINKLESS_CHECK(step_plan_ != nullptr, "iteration driver needs a plan");
  }

 protected:
  const dataflow::Plan* step_plan_;
  dataflow::Bindings static_bindings_;
  Config config_;
  dataflow::ExecOptions exec_options_;
  JobEnv env_;
};

/// Runs supersteps of `mode` from iteration 1 until max_iterations, the
/// step converged, or the state drained, handling every failure in
/// env.failures through `policy`. Fills `result`.
Status RunSuperstepLoop(const IterationConfig& config, int max_iterations,
                        dataflow::ExecOptions exec_options, JobEnv env,
                        IterationMode* mode, FaultTolerancePolicy* policy,
                        IterationProgress* result);

}  // namespace flinkless::iteration

#endif  // FLINKLESS_ITERATION_SUPERSTEP_LOOP_H_

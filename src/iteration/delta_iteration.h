// Delta iterations: a solution set holds the intermediate result, a working
// set holds pending updates; the step plan consumes the workset, emits
// updates to the solution set and the next workset, and the job terminates
// when the workset is empty (paper §2.1, used by Connected Components). The
// driver runs the shared superstep loop (superstep_loop.h); its delta part
// binds a snapshot of the solution set, applies the delta, moves the
// workset in, and reports the workset drained.

#ifndef FLINKLESS_ITERATION_DELTA_ITERATION_H_
#define FLINKLESS_ITERATION_DELTA_ITERATION_H_

#include <functional>
#include <string>
#include <vector>

#include "iteration/superstep_loop.h"

namespace flinkless::iteration {

/// Per-iteration statistics enrichment; sees the solution set and workset
/// after failure handling.
using DeltaStatsHook = std::function<void(
    int iteration, const SolutionSet& solution,
    const dataflow::PartitionedDataset& workset,
    runtime::IterationStats* stats)>;

/// Configuration of a delta-iterative job; the fields every iteration kind
/// shares (superstep guard, cache, message log, epoch hook) are inherited.
/// With message_log on, confined-log replay assumes the delta and
/// next-workset outputs are co-partitioned by solution_key (true for every
/// plan in src/algos — their final shuffle keys on the vertex id).
struct DeltaIterationConfig : IterationConfig {
  /// Hard superstep limit.
  int max_iterations = 1000;

  /// Key columns of the solution set (and of the delta records).
  dataflow::KeyColumns solution_key = {0};

  /// Source binding names the step plan reads.
  std::string workset_binding = "workset";
  std::string solution_binding = "solution";

  /// Plan outputs: records upserted into the solution set, and the next
  /// workset.
  std::string delta_output = "delta";
  std::string next_workset_output = "next_workset";

  /// Optional per-iteration statistics hook.
  DeltaStatsHook stats_hook;
};

/// Result of a delta-iterative run: the progress fields (converged = the
/// workset drained) plus the final solution set.
struct DeltaIterationResult : IterationProgress {
  SolutionSet final_solution;
};

/// Drives a delta iteration of `step_plan` under a fault-tolerance policy.
class DeltaIterationDriver : public IterationDriver<DeltaIterationConfig> {
 public:
  using IterationDriver::IterationDriver;

  /// Runs until the workset drains (or max_iterations). `initial_solution`
  /// records are indexed by config.solution_key; `initial_workset` must have
  /// the executor's partition count.
  Result<DeltaIterationResult> Run(
      std::vector<dataflow::Record> initial_solution,
      dataflow::PartitionedDataset initial_workset,
      FaultTolerancePolicy* policy);
};

}  // namespace flinkless::iteration

#endif  // FLINKLESS_ITERATION_DELTA_ITERATION_H_

// Bulk iterations: the whole intermediate dataset is recomputed every
// superstep by re-running the step plan (paper §2.1, used by PageRank). The
// driver runs the shared superstep loop (superstep_loop.h); its bulk part
// runs the step plan and the convergence fn, moves the next state in, and
// restarts from a copy of the initial state.

#ifndef FLINKLESS_ITERATION_BULK_ITERATION_H_
#define FLINKLESS_ITERATION_BULK_ITERATION_H_

#include <functional>
#include <string>
#include <vector>

#include "iteration/superstep_loop.h"

namespace flinkless::iteration {

/// Convergence test for bulk iterations: given the state the superstep
/// consumed and the state it produced, decide whether the computation has
/// converged; `metric` (optional output) is recorded as the
/// "convergence_metric" gauge (PageRank reports the L1 difference here,
/// matching the paper's bottom-right plot).
using BulkConvergenceFn =
    std::function<bool(const dataflow::PartitionedDataset& previous,
                       const dataflow::PartitionedDataset& next,
                       double* metric)>;

/// Per-iteration statistics enrichment (e.g. "vertices converged to their
/// true rank"). Called after failure handling, so the recorded series shows
/// the paper's plummet at failure iterations.
using BulkStatsHook =
    std::function<void(int iteration, const dataflow::PartitionedDataset& state,
                       runtime::IterationStats* stats)>;

/// Configuration of a bulk-iterative job; the fields every iteration kind
/// shares (superstep guard, cache, message log, epoch hook) are inherited.
struct BulkIterationConfig : IterationConfig {
  /// Hard superstep limit (Flink's "predefined number of iterations").
  int max_iterations = 100;

  /// Key columns the state dataset is partitioned by (the vertex id).
  dataflow::KeyColumns state_key = {0};

  /// Source binding name under which the current state is visible to the
  /// step plan.
  std::string state_binding = "state";

  /// Plan output holding the next state.
  std::string next_state_output = "next_state";

  /// Optional termination criterion; absent means run max_iterations.
  BulkConvergenceFn convergence;

  /// Optional per-iteration statistics hook.
  BulkStatsHook stats_hook;
};

/// Result of a bulk-iterative run: the progress fields plus the final state.
struct BulkIterationResult : IterationProgress {
  dataflow::PartitionedDataset final_state;
};

/// Drives a bulk iteration of `step_plan` under a fault-tolerance policy.
/// The plan must have an output named config.next_state_output and may
/// reference config.state_binding plus any of the static bindings as
/// sources.
class BulkIterationDriver : public IterationDriver<BulkIterationConfig> {
 public:
  using IterationDriver::IterationDriver;

  /// Runs to convergence (or max_iterations) from `initial`, which must be
  /// hash-partitioned by config.state_key. The policy handles any failures
  /// from env.failures.
  Result<BulkIterationResult> Run(dataflow::PartitionedDataset initial,
                                  FaultTolerancePolicy* policy);
};

}  // namespace flinkless::iteration

#endif  // FLINKLESS_ITERATION_BULK_ITERATION_H_

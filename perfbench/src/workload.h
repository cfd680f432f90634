// The interface every benchmark workload implements, and what one job run
// of a workload measures. harness.cc drives a workload through the timed
// mode (end-to-end metrics) or the traced mode (per-layer metrics).

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "dataflow/dataset.h"
#include "dataflow/executor.h"
#include "dataflow/plan.h"
#include "graph/graph.h"
#include "runtime/memory_manager.h"
#include "runtime/metrics.h"
#include "runtime/tracing.h"
#include "timed.h"

namespace perfbench {

/// Partitions and executor threads of every workload. At most this many
/// executor threads compute at any time (the server's jobs take turns).
inline constexpr int kPartitions = 8;
inline constexpr int kThreads = 4;
/// Keys per read batch.
inline constexpr int kBatchKeys = 16;

/// How one job is run and instrumented.
struct RunConfig {
  int threads = kThreads;
  /// The failure-free baseline: no failures injected and no fault
  /// tolerance (NoFaultTolerancePolicy, message log off). sim_ft_ms and
  /// iteration.extra_supersteps are measured against it.
  bool baseline = false;
  /// Wrap the policy and compensation in the timing decorators.
  bool wrap = false;
  /// Record spans with runtime::Tracer; JobRun::timelines returns them.
  bool trace = false;
  flinkless::runtime::MetricsSink* sink = nullptr;
};

/// The spans one tracer recorded, with the offset that turns its wall
/// timestamps into NowNs() time.
struct Timeline {
  flinkless::runtime::Tracer::Snapshot snapshot;
  int64_t offset_ns = 0;
};

/// Starts a tracer for a traced run and notes its offset to NowNs().
struct TracerWithOffset {
  /// Room for every event of a job whose executor runs on one thread (one
  /// worker slot takes them all: about 42,000 for a server job).
  static flinkless::runtime::Tracer::Options Capacity() {
    flinkless::runtime::Tracer::Options options;
    options.per_worker_capacity = size_t{1} << 18;
    return options;
  }

  flinkless::runtime::Tracer tracer{Capacity()};
  int64_t offset_ns = NowNs() - tracer.NowNs();

  Timeline Flush() const { return {tracer.Flush(), offset_ns}; }
};

/// Everything one job run measured. Wall-clock fields vary run to run; the
/// deterministic fields (sim_ns, supersteps, output_digest) must not.
struct JobRun {
  /// Status ok, converged, and every output equal to the reference.
  bool ok = false;
  std::string error;

  double job_s = 0.0;
  /// One sample per executed superstep (the server workload: per Pump).
  std::vector<double> superstep_ms;

  /// Traced runs: every tracer's spans, and the layer-sum windows in
  /// NowNs() time. Empty windows = the traced supersteps (iteration spans).
  std::vector<Timeline> timelines;
  std::vector<std::pair<int64_t, int64_t>> windows;
  /// IterationStats::wall_time_ns of every superstep, in order.
  std::vector<int64_t> superstep_wall_ns;

  int64_t sim_ns = 0;
  int supersteps = 0;
  /// Digest of the converged output (identical at any thread count).
  uint64_t output_digest = 0;

  /// Reads: wall time per answered synchronous batch; read operations
  /// attempted and failed (an operation is one synchronous batch or one
  /// queued lookup); synchronous attempts and those the server refused
  /// (retried after the next Pump); keys answered and found; answers
  /// served mid-recovery.
  std::vector<double> read_us;
  uint64_t read_ops = 0;
  uint64_t read_ops_failed = 0;
  uint64_t read_attempts = 0;
  uint64_t read_refused = 0;
  uint64_t read_keys = 0;
  uint64_t read_found = 0;
  uint64_t answered_during_recovery = 0;
  /// Read-view publish time measured from outside (the workloads without a
  /// server publish their converged result into a ReadView).
  double publish_ms = 0.0;

  /// Layer counters.
  uint64_t records_processed = 0;
  uint64_t messages_shuffled = 0;
  uint64_t storage_bytes_written = 0;
  uint64_t storage_bytes_read = 0;
  uint64_t storage_writes = 0;
  flinkless::runtime::MemoryManager::Stats memory;
  uint64_t memory_budget = 0;
  HookTime policy_start;
  HookTime policy_after_iteration;
  HookTime policy_on_failure;
  HookTime compensation;
};

/// Inputs of the per-layer calls, all on the workload's own data.
struct LayerCallInputs {
  const flinkless::dataflow::Plan* plan = nullptr;
  /// The step plan's bindings with the converged state bound.
  flinkless::dataflow::Bindings bindings;
  std::vector<std::string> volatile_bindings;
  /// Edge-like dataset: shuffled on its destination column (1) and
  /// indexed on its source column (0).
  const flinkless::dataflow::PartitionedDataset* edges = nullptr;
  /// Converged state keyed by vertex in column 0: serde round trip, and
  /// the probe keys of the index.
  const flinkless::dataflow::PartitionedDataset* state = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the graph, the input datasets and the plan from `seed`: the
  /// work timed as setup_s. The graph seed is the only input.
  virtual void Setup(uint64_t seed) = 0;

  /// Computes the reference outputs with the graph::Reference* oracles.
  /// Untimed.
  virtual void BuildOracle() = 0;

  /// Untimed preparation run after the oracle (the server workload sizes
  /// its memory budget here). Counts its job in `outcome`.
  virtual void Calibrate(Outcome* outcome) { (void)outcome; }

  /// Runs one job and checks its outputs against the reference.
  virtual JobRun Run(const RunConfig& config) = 0;

  /// Per-layer call inputs; valid after one successful Run.
  virtual LayerCallInputs LayerInputs() = 0;
};

/// `graph` (undirected) with vertex ids 1..n-1 permuted by `rng`; vertex 0
/// keeps its place. Min-label diffusion spreads from vertex 0, so the
/// permuted graph needs as many supersteps as the original for every seed.
flinkless::graph::Graph PermuteIds(const flinkless::graph::Graph& graph,
                                   flinkless::Rng* rng);

std::unique_ptr<Workload> MakePageRankWorkload();
std::unique_ptr<Workload> MakeCcWorkload();
std::unique_ptr<Workload> MakeServeWorkload();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_

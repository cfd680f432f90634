// Workload cc-grid128-confined-log: delta Connected Components on a
// 128 x 128 grid whose vertex ids the seed permutes (PermuteIds). The outbound message
// log is on, and ConfinedLogReplayPolicy(k=3) with the neighbourhood
// refresher recovers a failure of partition 1 at superstep 100. Hundreds
// of supersteps with tiny worksets: per-superstep fixed costs and the
// pessimistic write path (snapshots, log appends, StableStorage) dominate.

#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "algos/connected_components.h"
#include "algos/datasets.h"
#include "algos/refreshers.h"
#include "common/logging.h"
#include "core/policies.h"
#include "driver_job.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "iteration/delta_iteration.h"
#include "layers.h"
#include "workload.h"

namespace perfbench {

namespace graph = flinkless::graph;

graph::Graph PermuteIds(const graph::Graph& graph, flinkless::Rng* rng) {
  const int64_t n = graph.num_vertices();
  std::vector<int64_t> id(n);
  for (int64_t v = 0; v < n; ++v) id[v] = v;
  // Fisher-Yates over ids 1..n-1.
  for (int64_t i = n - 1; i > 1; --i) {
    const int64_t j = 1 + static_cast<int64_t>(
                              rng->NextBounded(static_cast<uint64_t>(i)));
    std::swap(id[i], id[j]);
  }
  std::vector<graph::Edge> edges;
  edges.reserve(graph.edges().size());
  for (const graph::Edge& e : graph.edges()) {
    edges.push_back({id[e.src], id[e.dst]});
  }
  auto permuted = graph::Graph::FromEdges(n, /*directed=*/false,
                                          std::move(edges));
  FLINKLESS_CHECK(permuted.ok(), permuted.status().ToString());
  return std::move(permuted).ValueOrDie();
}

namespace {

namespace algos = flinkless::algos;
namespace dataflow = flinkless::dataflow;
namespace iteration = flinkless::iteration;
using dataflow::PartitionedDataset;
using dataflow::Record;

constexpr int64_t kSide = 128;
constexpr char kFailures[] = "100:1";

class CcWorkload final : public Workload {
 public:
  void Setup(uint64_t seed) override {
    read_rng_.seed(seed);
    flinkless::Rng rng(seed);
    // Vertex 0 stays in a corner: every seed needs 2 * kSide - 1
    // supersteps.
    graph_ = PermuteIds(graph::GridGraph(kSide, kSide), &rng);
    plan_ = std::make_unique<dataflow::Plan>(
        algos::BuildConnectedComponentsPlan());
    edges_ = algos::EdgePairs(graph_, kPartitions);
    labels_ = algos::InitialLabels(graph_);
    workset_ = PartitionedDataset::HashPartitioned(labels_, {0}, kPartitions);
  }

  void BuildOracle() override {
    truth_ = graph::ReferenceConnectedComponents(graph_);
  }

  JobRun Run(const RunConfig& config) override {
    JobRun run;
    DriverJob job(config, kFailures, "cc");

    // Snapshots every third superstep, not every second: with every second
    // superstep heavier, the superstep median sits in the gap between the
    // two modes and jumps between runs.
    flinkless::core::ConfinedLogReplayPolicy confined(
        3, algos::MakeNeighborhoodRefresher(&graph_));
    flinkless::core::NoFaultTolerancePolicy none;
    iteration::FaultTolerancePolicy* inner = &confined;
    if (config.baseline) inner = &none;
    TimedPolicy timed_policy(inner);
    iteration::FaultTolerancePolicy* policy =
        config.wrap ? &timed_policy : inner;

    dataflow::Bindings statics;
    statics["edges"] = &edges_;

    iteration::DeltaIterationConfig delta;
    delta.max_iterations = 1000;
    delta.solution_key = {0};
    delta.message_log = !config.baseline;

    iteration::DeltaIterationDriver driver(plan_.get(), statics, delta,
                                           job.exec(), job.env());
    std::vector<Record> labels = labels_;
    PartitionedDataset workset = workset_;
    // Reads of the previous job's result while this one computes.
    BackgroundReader reader(
        view_.get(), graph_.num_vertices(), &read_rng_,
        [&](int64_t v, const Record& r) {
          return r[0].AsInt64() == v && r[1].AsInt64() == truth_[v];
        },
        &run);
    const int64_t t0 = NowNs();
    auto result = driver.Run(std::move(labels), std::move(workset), policy);
    run.job_s = SecondsSince(t0);
    reader.Stop();
    job.Collect(&run);
    if (!result.ok()) {
      run.error = "cc job failed: " + result.status().ToString();
      return run;
    }
    run.supersteps = result->supersteps_executed;
    if (config.wrap) {
      run.policy_start = timed_policy.start();
      run.policy_after_iteration = timed_policy.after_iteration();
      run.policy_on_failure = timed_policy.on_failure();
    }

    final_solution_ = result->final_solution.ToDataset();
    auto labels_out = algos::ToInt64Vector(final_solution_.Collect(),
                                           graph_.num_vertices(), -1);
    if (!labels_out.ok()) {
      run.error = "cc output unreadable: " + labels_out.status().ToString();
      return run;
    }
    run.output_digest = 1469598103934665603ull;
    DigestBytes(&run.output_digest, labels_out->data(),
                labels_out->size() * sizeof(int64_t));
    if (!result->converged) {
      run.error = "cc did not converge";
    } else if (*labels_out != truth_) {
      run.error = "cc labels differ from ReferenceConnectedComponents";
    } else {
      run.ok = true;
    }

    const iteration::SolutionSet& solution = result->final_solution;
    const int epoch = result->iterations;
    view_ = PublishConverged(
        graph_.num_vertices(),
        [&](flinkless::server::ReadView* view) {
          view->PublishDelta(solution, epoch);
        },
        &run);
    return run;
  }

  LayerCallInputs LayerInputs() override {
    LayerCallInputs in;
    in.plan = plan_.get();
    in.bindings["workset"] = &workset_;
    in.bindings["solution"] = &final_solution_;
    in.bindings["edges"] = &edges_;
    in.volatile_bindings = {"workset", "solution"};
    in.edges = &edges_;
    in.state = &final_solution_;
    return in;
  }

 private:
  std::mt19937_64 read_rng_;
  graph::Graph graph_;
  std::unique_ptr<dataflow::Plan> plan_;
  PartitionedDataset edges_;
  std::vector<Record> labels_;
  PartitionedDataset workset_;
  std::vector<int64_t> truth_;
  PartitionedDataset final_solution_;
  /// The last job's result, read while the next job runs.
  std::unique_ptr<flinkless::server::ReadView> view_;
};

}  // namespace

std::unique_ptr<Workload> MakeCcWorkload() {
  return std::make_unique<CcWorkload>();
}

}  // namespace perfbench

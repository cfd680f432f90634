// Workload pagerank-rmat16-optimistic: bulk PageRank on a directed RMAT
// graph (scale 16, Graph500 skew) to an L1 tolerance of 1e-9. Partitions 3
// and 5 fail at supersteps 8 and 16; OptimisticRecoveryPolicy with
// FixRanks recovers without any checkpoint. Almost all time is spent in
// the dataflow executor.

#include <cmath>
#include <memory>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algos/datasets.h"
#include "algos/pagerank.h"
#include "common/rng.h"
#include "core/policies.h"
#include "driver_job.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "iteration/bulk_iteration.h"
#include "layers.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace algos = flinkless::algos;
namespace dataflow = flinkless::dataflow;
namespace graph = flinkless::graph;
namespace iteration = flinkless::iteration;
using dataflow::PartitionedDataset;
using dataflow::Record;

constexpr int kScale = 16;
constexpr int kEdgeFactor = 8;
constexpr double kDamping = 0.85;
constexpr double kL1Tolerance = 1e-9;
constexpr double kMaxAbsError = 1e-6;
constexpr char kFailures[] = "8:3;16:5";

class PageRankWorkload final : public Workload {
 public:
  void Setup(uint64_t seed) override {
    read_rng_.seed(seed);
    flinkless::Rng rng(seed);
    graph_ = graph::Rmat(kScale, kEdgeFactor, &rng);
    plan_ = std::make_unique<dataflow::Plan>(
        algos::BuildPageRankPlan(graph_.num_vertices(), kDamping));
    links_ = algos::Links(graph_, kPartitions);
    dangling_ = algos::DanglingVertices(graph_, kPartitions);
    zero_mass_ = PartitionedDataset::HashPartitioned(
        {dataflow::MakeRecord(int64_t{0}, 0.0)}, {0}, kPartitions);
    initial_ = algos::InitialRanks(graph_, kPartitions);
  }

  void BuildOracle() override {
    truth_ = graph::ReferencePageRank(graph_, kDamping, 10000, 1e-13);
  }

  JobRun Run(const RunConfig& config) override {
    JobRun run;
    DriverJob job(config, kFailures, "pagerank");

    algos::FixRanksCompensation fix(graph_.num_vertices());
    TimedCompensation timed_fix(&fix);
    flinkless::core::OptimisticRecoveryPolicy optimistic(
        config.wrap ? static_cast<flinkless::core::CompensationFunction*>(
                          &timed_fix)
                    : &fix);
    flinkless::core::NoFaultTolerancePolicy none;
    iteration::FaultTolerancePolicy* inner = &optimistic;
    if (config.baseline) inner = &none;
    TimedPolicy timed_policy(inner);
    iteration::FaultTolerancePolicy* policy =
        config.wrap ? &timed_policy : inner;

    dataflow::Bindings statics;
    statics["links"] = &links_;
    statics["dangling"] = &dangling_;
    statics["zero_mass"] = &zero_mass_;

    iteration::BulkIterationConfig bulk;
    bulk.max_iterations = 100;
    bulk.state_key = {0};
    // PageRank's compare-to-old-rank: L1 norm of the difference between
    // consecutive rank vectors (as algos::RunPageRank configures it).
    bulk.convergence = [](const PartitionedDataset& prev,
                          const PartitionedDataset& next, double* metric) {
      std::unordered_map<int64_t, double> old_ranks;
      old_ranks.reserve(prev.NumRecords());
      for (int p = 0; p < prev.num_partitions(); ++p) {
        for (const Record& r : prev.partition(p)) {
          old_ranks[r[0].AsInt64()] = r[1].AsDouble();
        }
      }
      double l1 = 0.0;
      for (int p = 0; p < next.num_partitions(); ++p) {
        for (const Record& r : next.partition(p)) {
          auto it = old_ranks.find(r[0].AsInt64());
          const double old_rank = it == old_ranks.end() ? 0.0 : it->second;
          l1 += std::abs(r[1].AsDouble() - old_rank);
        }
      }
      *metric = l1;
      return l1 < kL1Tolerance;
    };

    iteration::BulkIterationDriver driver(plan_.get(), statics, bulk,
                                          job.exec(), job.env());
    PartitionedDataset initial = initial_;
    // Reads of the previous job's result while this one computes.
    BackgroundReader reader(
        view_.get(), graph_.num_vertices(), &read_rng_,
        [&](int64_t v, const Record& r) {
          return r[0].AsInt64() == v &&
                 std::abs(r[1].AsDouble() - truth_[v]) <= kMaxAbsError;
        },
        &run);
    const int64_t t0 = NowNs();
    auto result = driver.Run(std::move(initial), policy);
    run.job_s = SecondsSince(t0);
    reader.Stop();
    job.Collect(&run);
    if (!result.ok()) {
      run.error = "pagerank job failed: " + result.status().ToString();
      return run;
    }
    run.supersteps = result->supersteps_executed;
    if (config.wrap) {
      run.policy_start = timed_policy.start();
      run.policy_after_iteration = timed_policy.after_iteration();
      run.policy_on_failure = timed_policy.on_failure();
      run.compensation = timed_fix.compensate();
    }

    auto ranks = algos::ToDoubleVector(result->final_state.Collect(),
                                       graph_.num_vertices(), -1.0);
    if (!ranks.ok()) {
      run.error = "pagerank output unreadable: " + ranks.status().ToString();
      return run;
    }
    double max_error = 0.0;
    for (size_t v = 0; v < truth_.size(); ++v) {
      max_error = std::max(max_error, std::abs((*ranks)[v] - truth_[v]));
    }
    run.output_digest = 1469598103934665603ull;
    DigestBytes(&run.output_digest, ranks->data(),
                ranks->size() * sizeof(double));
    if (!result->converged) {
      run.error = "pagerank did not converge";
    } else if (max_error > kMaxAbsError) {
      run.error = "pagerank max abs error " + std::to_string(max_error) +
                  " vs ReferencePageRank exceeds 1e-6";
    } else {
      run.ok = true;
    }

    final_state_ = std::move(result->final_state);
    const int epoch = result->iterations;
    view_ = PublishConverged(
        graph_.num_vertices(),
        [&](flinkless::server::ReadView* view) {
          view->PublishBulk(final_state_, epoch);
        },
        &run);
    return run;
  }

  LayerCallInputs LayerInputs() override {
    LayerCallInputs in;
    in.plan = plan_.get();
    in.bindings["state"] = &final_state_;
    in.bindings["links"] = &links_;
    in.bindings["dangling"] = &dangling_;
    in.bindings["zero_mass"] = &zero_mass_;
    in.volatile_bindings = {"state"};
    in.edges = &links_;
    in.state = &final_state_;
    return in;
  }

 private:
  std::mt19937_64 read_rng_;
  graph::Graph graph_;
  std::unique_ptr<dataflow::Plan> plan_;
  PartitionedDataset links_;
  PartitionedDataset dangling_;
  PartitionedDataset zero_mass_;
  PartitionedDataset initial_;
  std::vector<double> truth_;
  PartitionedDataset final_state_;
  /// The last job's result, read while the next job runs.
  std::unique_ptr<flinkless::server::ReadView> view_;
};

}  // namespace

std::unique_ptr<Workload> MakePageRankWorkload() {
  return std::make_unique<PageRankWorkload>();
}

}  // namespace perfbench

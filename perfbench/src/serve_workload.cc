// Workload serve-cc-budgeted: one JobServer (2 concurrent jobs) runs two
// Connected Components jobs under optimistic recovery while a closed-loop
// client reads their states. Job "grid" is the permuted 128 x 128 grid
// (partition 1 fails at superstep 100), job "rmat" an undirected RMAT
// graph of scale 15 (partitions 1-4 fail at superstep 3). The RMAT
// structure is generated once from a fixed seed and the run's seed
// permutes its vertex ids, keeping vertex 0 (its hub) in place. Both
// choices keep the job's superstep count the same for every seed: with a
// random structure, or with one lost partition, recovery needs one or two
// extra supersteps depending on the seed, and every extra superstep of
// this job changes the spill sequence under the budget (SimClock
// fault-tolerance cost +80%). The shared memory
// budget is half the peak residency the same jobs reach without a budget.
//
// Before every Pump the client sends, per job, kSyncBatches MultiLookup
// batches of kBatchKeys random keys and one queued batch (EnqueueLookup,
// answered at the server's service points, failure detection included).
// A batch refused because it touches a partition the view has not
// materialized yet is retried after the next Pump, as the server's
// protocol asks; it fails only when refused more than kMaxRetries times.

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "algos/connected_components.h"
#include "algos/datasets.h"
#include "common/logging.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "layers.h"
#include "runtime/cost_model.h"
#include "runtime/failure.h"
#include "runtime/sim_clock.h"
#include "runtime/stable_storage.h"
#include "server/job_server.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace algos = flinkless::algos;
namespace dataflow = flinkless::dataflow;
namespace graph = flinkless::graph;
namespace iteration = flinkless::iteration;
namespace runtime = flinkless::runtime;
namespace server = flinkless::server;
using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Record;

constexpr int64_t kGridSide = 128;
constexpr int kRmatScale = 15;
constexpr int kRmatEdgeFactor = 8;
constexpr uint64_t kRmatStructureSeed = 12345;
/// Executor threads per job. The pumps are ~7 ms supersteps with a barrier
/// per operator, which host CPU steal on any one of 4 threads can stall:
/// with 4 threads, job_s spread by 0.40 of its median over ten seeds on a
/// 4-vCPU VM (0.08 with 1). Thread scaling is the PageRank workload's to
/// measure.
constexpr int kServeThreads = 1;
constexpr int kSyncBatches = 4;
constexpr int kMaxRetries = 3;

/// One job of the server: its graph, inputs, reference and failures.
struct JobData {
  std::string id;
  std::string failures;
  graph::Graph graph;
  std::unique_ptr<dataflow::Plan> plan;
  PartitionedDataset edges;
  std::vector<Record> labels;
  PartitionedDataset workset;
  std::vector<int64_t> truth;

  void Build() {
    plan = std::make_unique<dataflow::Plan>(
        algos::BuildConnectedComponentsPlan());
    edges = algos::EdgePairs(graph, kPartitions);
    labels = algos::InitialLabels(graph);
    workset = PartitionedDataset::HashPartitioned(labels, {0}, kPartitions);
  }

  /// Min-label diffusion and FixComponents only ever move a label between
  /// the component's minimum and the vertex's own id.
  bool LabelInBounds(int64_t v, const Record& r) const {
    if (v < 0 || v >= graph.num_vertices() || r.size() < 2) return false;
    const int64_t label = r[1].AsInt64();
    return r[0].AsInt64() == v && truth[v] <= label && label <= v;
  }
};

/// A read batch of the closed-loop client.
struct Batch {
  size_t job = 0;
  std::vector<Record> keys;
  int refusals = 0;
};

class ServeWorkload final : public Workload {
 public:
  void Setup(uint64_t seed) override {
    seed_ = seed;
    flinkless::Rng rng(seed);
    jobs_.clear();
    jobs_.resize(2);
    jobs_[0].id = "grid";
    jobs_[0].failures = "100:1";
    jobs_[0].graph = PermuteIds(graph::GridGraph(kGridSide, kGridSide), &rng);
    jobs_[1].id = "rmat";
    jobs_[1].failures = "3:1,2,3,4";
    flinkless::Rng structure_rng(kRmatStructureSeed);
    const graph::Graph directed =
        graph::Rmat(kRmatScale, kRmatEdgeFactor, &structure_rng);
    auto undirected = graph::Graph::FromEdges(
        directed.num_vertices(), /*directed=*/false, directed.edges());
    FLINKLESS_CHECK(undirected.ok(), undirected.status().ToString());
    jobs_[1].graph = PermuteIds(*undirected, &rng);
    for (JobData& job : jobs_) job.Build();
    // Server construction is part of set-up; every run builds its own.
    runtime::SimClock clock;
    runtime::CostModel costs;
    runtime::StableStorage storage(&clock, &costs);
    server::JobServer probe(&clock, &costs, &storage, Options(0));
  }

  void BuildOracle() override {
    for (JobData& job : jobs_) {
      job.truth = graph::ReferenceConnectedComponents(job.graph);
    }
  }

  void Calibrate(Outcome* outcome) override {
    budget_ = 0;
    JobRun unbudgeted = Run(RunConfig{});
    outcome->Op(unbudgeted.ok, "calibration run: " + unbudgeted.error);
    budget_ = unbudgeted.memory.peak_resident_bytes / 2;
  }

  JobRun Run(const RunConfig& config) override {
    JobRun run;
    runtime::SimClock clock;
    runtime::CostModel costs;
    runtime::StableStorage storage(&clock, &costs);
    // Traced runs give every job its own tracer (spans of jobs that take
    // turns would interleave on one tracer's span stack) and the server one
    // for its publish spans.
    std::vector<std::unique_ptr<TracerWithOffset>> tracing;
    for (size_t t = 0; config.trace && t <= jobs_.size(); ++t) {
      tracing.push_back(std::make_unique<TracerWithOffset>());
    }

    std::vector<std::unique_ptr<algos::FixComponentsCompensation>> fixes;
    std::vector<std::unique_ptr<TimedCompensation>> timed_fixes;
    std::vector<std::unique_ptr<iteration::FaultTolerancePolicy>> policies;
    std::vector<std::unique_ptr<TimedPolicy>> timed_policies;
    std::vector<server::JobSpec> specs;
    for (JobData& job : jobs_) {
      fixes.push_back(
          std::make_unique<algos::FixComponentsCompensation>(&job.graph));
      timed_fixes.push_back(
          std::make_unique<TimedCompensation>(fixes.back().get()));
      flinkless::core::CompensationFunction* fix = fixes.back().get();
      if (config.wrap) fix = timed_fixes.back().get();
      if (config.baseline) {
        policies.push_back(
            std::make_unique<flinkless::core::NoFaultTolerancePolicy>());
      } else {
        policies.push_back(
            std::make_unique<flinkless::core::OptimisticRecoveryPolicy>(fix));
      }
      timed_policies.push_back(
          std::make_unique<TimedPolicy>(policies.back().get()));

      server::JobSpec spec;
      spec.job_id = job.id;
      spec.kind = iteration::StateKind::kDelta;
      spec.plan = job.plan.get();
      spec.bindings["edges"] = &job.edges;
      spec.exec.num_partitions = kPartitions;
      spec.exec.num_threads = std::min(config.threads, kServeThreads);
      if (config.trace) spec.exec.tracer = &tracing[1 + specs.size()]->tracer;
      spec.policy = config.wrap ? timed_policies.back().get()
                                : policies.back().get();
      if (!config.baseline) {
        auto parsed = runtime::FailureSchedule::Parse(job.failures);
        FLINKLESS_CHECK(parsed.ok(), parsed.status().ToString());
        spec.failures = *parsed;
      }
      spec.delta.max_iterations = 1000;
      spec.delta.solution_key = {0};
      spec.initial_solution = job.labels;
      spec.initial_workset = job.workset;
      specs.push_back(std::move(spec));
    }

    server::JobServer jobs(&clock, &costs, &storage, Options(budget_),
                           config.trace ? &tracing[0]->tracer : nullptr,
                           config.sink);
    std::mt19937_64 rng(seed_);
    std::vector<Batch> retries;
    uint64_t ops_failed = 0;
    auto new_batch = [&](size_t j) {
      std::uniform_int_distribution<int64_t> pick(
          0, jobs_[j].graph.num_vertices() - 1);
      Batch batch;
      batch.job = j;
      for (int k = 0; k < kBatchKeys; ++k) {
        batch.keys.push_back(MakeRecord(pick(rng)));
      }
      return batch;
    };
    // One synchronous MultiLookup; a refused batch goes back on `retries`.
    auto read = [&](Batch batch) {
      const JobData& job = jobs_[batch.job];
      ++run.read_attempts;
      const int64_t t0 = NowNs();
      auto answers = jobs.MultiLookup(job.id, batch.keys);
      const int64_t t1 = NowNs();
      if (!answers.ok()) {
        ++run.read_refused;
        if (answers.status().code() ==
                flinkless::StatusCode::kFailedPrecondition &&
            ++batch.refusals <= kMaxRetries) {
          retries.push_back(std::move(batch));
        } else {
          ++run.read_ops;
          ++ops_failed;
          run.error = "read refused: " + answers.status().ToString();
        }
        return;
      }
      ++run.read_ops;
      run.read_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      bool ok = answers->size() == batch.keys.size();
      for (size_t i = 0; ok && i < answers->size(); ++i) {
        const server::LookupAnswer& a = (*answers)[i];
        ++run.read_keys;
        run.read_found += a.found ? 1 : 0;
        ok = a.found && LabelOk(batch.job, a);
      }
      if (!ok) {
        ++ops_failed;
        run.error = "read of job " + job.id + " returned an out-of-bounds "
                    "label";
      }
    };

    const int64_t t0 = NowNs();
    for (server::JobSpec& spec : specs) {
      flinkless::Status st = jobs.Submit(std::move(spec));
      FLINKLESS_CHECK(st.ok(), st.ToString());
    }
    uint64_t queued_reads = 0;
    for (bool more = true; more;) {
      std::vector<Batch> pending = std::move(retries);
      retries.clear();
      for (Batch& batch : pending) read(std::move(batch));
      for (size_t j = 0; j < jobs_.size(); ++j) {
        for (int b = 0; b < kSyncBatches; ++b) read(new_batch(j));
        // The queued batch: answered at the next service point.
        for (Record& key : new_batch(j).keys) {
          auto ticket = jobs.EnqueueLookup(jobs_[j].id, std::move(key));
          FLINKLESS_CHECK(ticket.ok(), ticket.status().ToString());
          ++queued_reads;
          ++run.read_ops;
        }
      }
      const int64_t pump_start = NowNs();
      more = jobs.Pump();
      const int64_t pump_end = NowNs();
      run.superstep_ms.push_back(static_cast<double>(pump_end - pump_start) /
                                 1e6);
      if (config.trace) run.windows.emplace_back(pump_start, pump_end);
      for (const server::LookupAnswer& a : jobs.TakeAnswers()) {
        const size_t j = a.job_id == jobs_[0].id ? 0 : 1;
        ++run.read_keys;
        run.read_found += a.found ? 1 : 0;
        if (!a.found || !LabelOk(j, a)) {
          ++ops_failed;
          run.error = "queued read of job " + a.job_id +
                      " returned an out-of-bounds label";
        }
        --queued_reads;
      }
    }
    run.job_s = SecondsSince(t0);
    for (const auto& t : tracing) run.timelines.push_back(t->Flush());
    if (queued_reads != 0) {
      ++ops_failed;
      run.error = std::to_string(queued_reads) + " queued reads unanswered";
    }
    run.read_ops_failed = ops_failed;
    run.answered_during_recovery = jobs.answered_during_recovery();

    run.sim_ns = clock.TotalNs();
    run.storage_bytes_written = storage.bytes_written();
    run.storage_bytes_read = storage.bytes_read();
    run.storage_writes = storage.num_writes();
    run.memory = jobs.memory().stats();
    run.memory_budget = jobs.memory().budget_bytes();
    run.output_digest = 1469598103934665603ull;
    bool outputs_ok = true;
    for (size_t j = 0; j < jobs_.size(); ++j) {
      const JobData& job = jobs_[j];
      auto report = jobs.Report(job.id);
      if (!report.ok() || !report->status.ok() || !report->converged) {
        outputs_ok = false;
        run.error = "job " + job.id + " did not converge: " +
                    (report.ok() ? report->status.ToString()
                                 : report.status().ToString());
        continue;
      }
      run.supersteps += report->supersteps_executed;
      const runtime::MetricsRegistry* registry = jobs.job_metrics(job.id);
      run.records_processed += registry->TotalRecords();
      run.messages_shuffled += registry->TotalMessages();
      auto solution = jobs.FinalSolution(job.id);
      FLINKLESS_CHECK(solution.ok(), solution.status().ToString());
      PartitionedDataset final_ds = (*solution)->ToDataset();
      auto labels = algos::ToInt64Vector(final_ds.Collect(),
                                         job.graph.num_vertices(), -1);
      if (!labels.ok() || *labels != job.truth) {
        outputs_ok = false;
        run.error = "job " + job.id +
                    " labels differ from ReferenceConnectedComponents";
        continue;
      }
      DigestBytes(&run.output_digest, labels->data(),
                  labels->size() * sizeof(int64_t));
      // The rmat job's converged state feeds the per-layer calls.
      if (j == 1) final_solution_ = std::move(final_ds);
    }
    if (config.wrap) {
      for (size_t j = 0; j < jobs_.size(); ++j) {
        Accumulate(&run.policy_start, timed_policies[j]->start());
        Accumulate(&run.policy_after_iteration,
                   timed_policies[j]->after_iteration());
        Accumulate(&run.policy_on_failure, timed_policies[j]->on_failure());
        Accumulate(&run.compensation, timed_fixes[j]->compensate());
      }
    }
    // Read failures are counted as read operations, not against the job.
    run.ok = outputs_ok;
    return run;
  }

  LayerCallInputs LayerInputs() override {
    const JobData& rmat = jobs_[1];
    LayerCallInputs in;
    in.plan = rmat.plan.get();
    in.bindings["workset"] = &rmat.workset;
    in.bindings["solution"] = &final_solution_;
    in.bindings["edges"] = &rmat.edges;
    in.volatile_bindings = {"workset", "solution"};
    in.edges = &rmat.edges;
    in.state = &final_solution_;
    return in;
  }

 private:
  static server::ServerOptions Options(uint64_t budget) {
    server::ServerOptions options;
    options.max_concurrent_jobs = 2;
    options.memory_budget_bytes = budget;
    return options;
  }

  static void Accumulate(HookTime* total, const HookTime& part) {
    total->ns += part.ns;
    total->calls += part.calls;
  }

  bool LabelOk(size_t job, const server::LookupAnswer& a) const {
    return a.key.size() == 1 &&
           jobs_[job].LabelInBounds(a.key[0].AsInt64(), a.record);
  }

  uint64_t seed_ = 0;
  std::vector<JobData> jobs_;
  uint64_t budget_ = 0;
  PartitionedDataset final_solution_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload() {
  return std::make_unique<ServeWorkload>();
}

}  // namespace perfbench

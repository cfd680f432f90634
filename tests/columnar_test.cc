// Columnar batch execution (DESIGN.md §12): batch <-> record round-trips
// over every ValueType (including empty and long strings), v2 dataset-blob
// serde corruption rejection, FlatKeyIndex parity with the map-based
// grouping it replaces, and the headline contract — columnar execution
// matches the record-at-a-time goldens across thread counts and injected
// failures.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "algos/connected_components.h"
#include "algos/pagerank.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/policies.h"
#include "dataflow/columnar.h"
#include "dataflow/dataset.h"
#include "dataflow/executor.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "iteration/context.h"
#include "runtime/failure.h"
#include "runtime/metrics.h"
#include "runtime/sim_clock.h"
#include "runtime/stable_storage.h"

namespace flinkless {
namespace {

using dataflow::BatchSchema;
using dataflow::ColumnarBatch;
using dataflow::DeserializePartitionedDataset;
using dataflow::ExecOptions;
using dataflow::ExecStats;
using dataflow::Executor;
using dataflow::FlatKeyIndex;
using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;
using dataflow::ValueType;

// ------------------------------------------------ batch <-> record bridge --

std::vector<Record> MixedRows() {
  // Every ValueType, with the string column exercising the arena layout's
  // edge cases: empty strings, embedded NULs, and a long (64 KiB) value.
  std::vector<Record> rows;
  rows.push_back(MakeRecord(int64_t{7}, 0.5, std::string("alpha")));
  rows.push_back(MakeRecord(int64_t{-1}, -0.0, std::string()));
  rows.push_back(MakeRecord(int64_t{0}, 3.25, std::string("b\0c", 3)));
  rows.push_back(
      MakeRecord(int64_t{1} << 62, 1e300, std::string(64 * 1024, 'x')));
  rows.push_back(MakeRecord(int64_t{42}, 0.0, std::string("alpha")));
  return rows;
}

TEST(ColumnarBatchTest, RoundTripsEveryValueType) {
  std::vector<Record> rows = MixedRows();
  ColumnarBatch batch;
  ASSERT_TRUE(ColumnarBatch::FromRecords(rows, &batch));
  ASSERT_EQ(batch.num_rows(), rows.size());
  ASSERT_EQ(batch.num_columns(), 3u);
  EXPECT_EQ(batch.schema(),
            (BatchSchema{ValueType::kInt64, ValueType::kDouble,
                         ValueType::kString}));
  EXPECT_EQ(batch.ToRecords(), rows);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batch.RowAsRecord(i), rows[i]) << "row " << i;
  }
  // Column accessors expose the flat layout directly.
  EXPECT_EQ(batch.Int64Column(0)[3], int64_t{1} << 62);
  EXPECT_EQ(batch.DoubleColumn(1)[2], 3.25);
  EXPECT_EQ(batch.StringAt(2, 1), std::string_view());
  EXPECT_EQ(batch.StringAt(2, 2), std::string_view("b\0c", 3));
  EXPECT_EQ(batch.StringAt(2, 3).size(), 64u * 1024);
}

TEST(ColumnarBatchTest, RoundTripsEmptyAndArityZero) {
  ColumnarBatch empty;
  ASSERT_TRUE(ColumnarBatch::FromRecords({}, &empty));
  EXPECT_EQ(empty.num_rows(), 0u);
  EXPECT_TRUE(empty.ToRecords().empty());

  std::vector<Record> arity_zero{Record{}, Record{}};
  ColumnarBatch batch;
  ASSERT_TRUE(ColumnarBatch::FromRecords(arity_zero, &batch));
  EXPECT_EQ(batch.num_rows(), 2u);
  EXPECT_EQ(batch.ToRecords(), arity_zero);
}

TEST(ColumnarBatchTest, RejectsHeterogeneousRecords) {
  ColumnarBatch batch;
  // Arity mismatch.
  EXPECT_FALSE(ColumnarBatch::FromRecords(
      {MakeRecord(int64_t{1}), MakeRecord(int64_t{1}, int64_t{2})}, &batch));
  // Type mismatch in one column.
  EXPECT_FALSE(ColumnarBatch::FromRecords(
      {MakeRecord(int64_t{1}, 2.0), MakeRecord(int64_t{1}, int64_t{2})},
      &batch));
  BatchSchema schema;
  EXPECT_FALSE(dataflow::InferBatchSchema(
      {MakeRecord(std::string("a")), MakeRecord(2.0)}, &schema));
}

TEST(ColumnarBatchTest, SerializeRoundTripsAndSizesMatch) {
  std::vector<Record> rows = MixedRows();
  ColumnarBatch batch;
  ASSERT_TRUE(ColumnarBatch::FromRecords(rows, &batch));
  std::vector<uint8_t> bytes;
  batch.SerializeTo(&bytes);
  EXPECT_EQ(bytes.size(), batch.SerializedBytes());

  size_t offset = 0;
  auto back = ColumnarBatch::Deserialize(bytes, &offset, batch.schema());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(offset, bytes.size());
  EXPECT_TRUE(*back == batch);
  EXPECT_EQ(back->ToRecords(), rows);
}

TEST(ColumnarBatchTest, DeserializeRejectsTruncation) {
  std::vector<Record> rows = MixedRows();
  ColumnarBatch batch;
  ASSERT_TRUE(ColumnarBatch::FromRecords(rows, &batch));
  std::vector<uint8_t> bytes;
  batch.SerializeTo(&bytes);
  // Every proper prefix must fail cleanly — never crash or read past the
  // end. (A sweep, because the failure point walks through row count,
  // fixed columns, string lengths, and the arena.)
  for (size_t cut = 0; cut < bytes.size(); cut += 977) {
    std::vector<uint8_t> trunc(bytes.begin(), bytes.begin() + cut);
    size_t offset = 0;
    auto result = ColumnarBatch::Deserialize(trunc, &offset, batch.schema());
    EXPECT_FALSE(result.ok()) << "prefix of " << cut << " bytes";
  }
}

TEST(ColumnarBatchTest, HashRowKeyMatchesRecordHashKey) {
  std::vector<Record> rows = MixedRows();
  ColumnarBatch batch;
  ASSERT_TRUE(ColumnarBatch::FromRecords(rows, &batch));
  const std::vector<dataflow::KeyColumns> keys{{0}, {1}, {2}, {0, 2}, {2, 1}};
  for (const auto& key : keys) {
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(batch.HashRowKey(i, key), dataflow::HashKey(rows[i], key))
          << "row " << i;
    }
  }
}

// ------------------------------------------------------- flat key index --

TEST(FlatKeyIndexTest, ChainsMatchGroupByKeyArrivalOrder) {
  Rng rng(11);
  std::vector<Record> rows;
  for (int64_t i = 0; i < 2000; ++i) {
    rows.push_back(
        MakeRecord(static_cast<int64_t>(rng.NextBounded(64)), i));
  }
  FlatKeyIndex index;
  index.Build(rows, {0});
  ASSERT_EQ(index.num_rows(), rows.size());

  // Reference grouping: key -> row ids in arrival order.
  std::unordered_map<Record, std::vector<int32_t>, dataflow::RecordHash> ref;
  for (size_t i = 0; i < rows.size(); ++i) {
    ref[dataflow::ExtractKey(rows[i], {0})].push_back(
        static_cast<int32_t>(i));
  }
  ASSERT_EQ(index.num_groups(), ref.size());
  for (int32_t head : index.heads()) {
    std::vector<int32_t> chain;
    for (int32_t r = head; r >= 0; r = index.Next(r)) chain.push_back(r);
    EXPECT_EQ(chain, ref.at(dataflow::ExtractKey(rows[head], {0})));
  }
}

TEST(FlatKeyIndexTest, FindFirstOnStringAndCompositeKeys) {
  // Forces the generic (non-int64) hashing path.
  std::vector<Record> rows;
  rows.push_back(MakeRecord(std::string("a"), int64_t{1}, int64_t{10}));
  rows.push_back(MakeRecord(std::string("b"), int64_t{1}, int64_t{20}));
  rows.push_back(MakeRecord(std::string("a"), int64_t{1}, int64_t{30}));
  rows.push_back(MakeRecord(std::string("a"), int64_t{2}, int64_t{40}));
  FlatKeyIndex index;
  index.Build(rows, {0, 1});

  Record probe = MakeRecord(int64_t{99}, std::string("a"), int64_t{1});
  // Probe key columns differ from build key columns (join-style).
  int32_t row =
      index.FindFirst(probe, {1, 2}, dataflow::HashKey(probe, {1, 2}));
  ASSERT_EQ(row, 0);
  EXPECT_EQ(index.Next(row), 2);
  EXPECT_EQ(index.Next(2), -1);

  Record miss = MakeRecord(std::string("c"), int64_t{1});
  EXPECT_EQ(index.FindFirst(miss, {0, 1}, dataflow::HashKey(miss, {0, 1})),
            -1);
}

// ----------------------------------------------------- dataset blob serde --

PartitionedDataset HomogeneousDataset() {
  Rng rng(5);
  std::vector<Record> records;
  for (int64_t i = 0; i < 500; ++i) {
    records.push_back(MakeRecord(static_cast<int64_t>(rng.NextBounded(50)),
                                 static_cast<double>(i) * 0.25,
                                 std::string(i % 7, 's')));
  }
  return PartitionedDataset::RoundRobin(std::move(records), 4);
}

TEST(DatasetBlobTest, ColumnarBlobRoundTripsAndSizeMatches) {
  PartitionedDataset ds = HomogeneousDataset();
  std::vector<uint8_t> blob = SerializePartitionedDataset(ds);
  EXPECT_EQ(blob.size(), SerializedDatasetBytes(ds));
  auto back = DeserializePartitionedDataset(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_partitions(), ds.num_partitions());
  for (int p = 0; p < ds.num_partitions(); ++p) {
    EXPECT_EQ(back->partition(p), ds.partition(p)) << "partition " << p;
  }
}

TEST(DatasetBlobTest, HeterogeneousDatasetsFallBackToRecordBlob) {
  PartitionedDataset ds(2);
  ds.partition(0).push_back(MakeRecord(int64_t{1}, 2.0));
  ds.partition(1).push_back(MakeRecord(std::string("mixed")));
  std::vector<uint8_t> blob = SerializePartitionedDataset(ds);
  EXPECT_EQ(blob.size(), SerializedDatasetBytes(ds));
  auto back = DeserializePartitionedDataset(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->partition(0), ds.partition(0));
  EXPECT_EQ(back->partition(1), ds.partition(1));
}

TEST(DatasetBlobTest, ColumnarBlobRejectsCorruption) {
  PartitionedDataset ds = HomogeneousDataset();
  std::vector<uint8_t> blob = SerializePartitionedDataset(ds);

  {  // Bad magic.
    std::vector<uint8_t> bad = blob;
    bad[0] ^= 0xFF;
    EXPECT_FALSE(DeserializePartitionedDataset(bad).ok());
  }
  {  // Truncation inside a column payload.
    std::vector<uint8_t> bad(blob.begin(), blob.end() - 3);
    EXPECT_FALSE(DeserializePartitionedDataset(bad).ok());
  }
  {  // Trailing garbage.
    std::vector<uint8_t> bad = blob;
    bad.push_back(0xAB);
    EXPECT_FALSE(DeserializePartitionedDataset(bad).ok());
  }
  {  // Unknown column type tag (tags sit right after magic+nparts+ncols).
    std::vector<uint8_t> bad = blob;
    bad[8 + 8 + 4] = 0x7F;
    EXPECT_FALSE(DeserializePartitionedDataset(bad).ok());
  }
}

// ----------------------------------------- record-path goldens --

Plan BuildHotPathPlan() {
  // Every rewritten operator, with both int64 and string keys: map,
  // pre-combined reduce, join (string key), group-reduce, distinct, union.
  Plan plan;
  auto src = plan.Source("in");
  auto mapped = plan.Map(
      src,
      [](const Record& r) {
        return MakeRecord(r[0].AsInt64() % 23,
                          "g" + std::to_string(r[0].AsInt64() % 5),
                          r[1].AsInt64());
      },
      "tag");
  auto reduced = plan.ReduceByKey(
      mapped, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsInt64(), a[1].AsString(),
                          a[2].AsInt64() + b[2].AsInt64());
      },
      "sum", /*pre_combine=*/true);
  auto joined = plan.Join(
      reduced, mapped, {1}, {1},
      [](const Record& l, const Record& r) {
        return MakeRecord(l[1].AsString(), l[2].AsInt64(), r[2].AsInt64());
      },
      "by-tag");
  auto grouped = plan.GroupReduceByKey(
      joined, {0},
      [](const Record& key, const std::vector<Record>& group) {
        int64_t sum = 0;
        for (const Record& g : group) sum += g[2].AsInt64();
        return MakeRecord(key[0].AsString(),
                          static_cast<int64_t>(group.size()), sum);
      },
      "per-tag");
  auto uniq = plan.Distinct(grouped, {0}, "distinct-tags");
  auto both = plan.Union(uniq, grouped, "union");
  plan.Output(both, "out");
  return plan;
}

// Goldens of the record-at-a-time executor, recorded before that path was
// deleted: the columnar path was checked byte-identical to it at threads
// {1, 2, 8}, and these digests keep it pinned there. Outputs are
// HashBytes(SerializePartitionedDataset(...)); ranks/labels are HashBytes
// over the raw value arrays (the build sets no -march, so doubles are
// bit-stable).
constexpr uint64_t kHotPathOutHash = 0x4998a8ebbe279fc0ULL;
constexpr uint64_t kHotPathRecordsProcessed = 30417;
constexpr uint64_t kHotPathMessagesShuffled = 3693;
constexpr int64_t kHotPathSimNs = 4446900;
const std::map<std::string, uint64_t> kHotPathNodeOutputs = {
    {"by-tag", 18195}, {"distinct-tags", 5}, {"in", 4000}, {"per-tag", 5},
    {"sum", 23},       {"tag", 4000},        {"union", 10},
};

constexpr uint64_t kPageRankRanksHash = 0x0060d60a28e01a51ULL;
constexpr int kPageRankIterations = 10;
constexpr uint64_t kPageRankMessages = 6450;
constexpr int64_t kPageRankSimNs = 28585700;
constexpr uint64_t kCcLabelsHash = 0x9a4f0a29298443a1ULL;
constexpr int kCcSupersteps = 5;
constexpr uint64_t kCcMessages = 2675;
constexpr int64_t kCcSimNs = 23713200;

template <typename T>
uint64_t HashValues(const std::vector<T>& values) {
  return HashBytes(values.data(), values.size() * sizeof(T));
}

class ColumnarAbTest : public ::testing::TestWithParam<int> {};

TEST_P(ColumnarAbTest, HotPathPlanIsByteIdenticalToRecordPath) {
  const int threads = GetParam();
  const int parts = 8;
  Plan plan = BuildHotPathPlan();
  Rng rng(31);
  std::vector<Record> records;
  for (int64_t i = 0; i < 4000; ++i) {
    records.push_back(
        MakeRecord(static_cast<int64_t>(rng.NextBounded(300)), i));
  }
  auto in = PartitionedDataset::RoundRobin(std::move(records), parts);

  runtime::CostModel costs;
  runtime::SimClock clock;
  ExecOptions options;
  options.num_partitions = parts;
  options.num_threads = threads;
  options.clock = &clock;
  options.costs = &costs;
  Executor executor(options);
  ExecStats stats;
  auto outs = executor.Execute(plan, {{"in", &in}}, &stats);
  ASSERT_TRUE(outs.ok()) << outs.status().ToString();

  std::vector<uint8_t> blob = SerializePartitionedDataset(outs->at("out"));
  EXPECT_EQ(HashBytes(blob.data(), blob.size()), kHotPathOutHash);
  EXPECT_EQ(stats.records_processed, kHotPathRecordsProcessed);
  EXPECT_EQ(stats.messages_shuffled, kHotPathMessagesShuffled);
  EXPECT_EQ(stats.node_output_counts, kHotPathNodeOutputs);
  EXPECT_EQ(clock.TotalNs(), kHotPathSimNs);
  // reduce, join, group-reduce and distinct all ran batch kernels.
  EXPECT_EQ(stats.batch_ops, 4u);
  EXPECT_EQ(stats.row_fallback_ops, 0u);
}

struct AbAlgoRun {
  std::vector<double> pr_ranks;
  std::vector<int64_t> cc_labels;
  int pr_iterations = 0;
  int cc_supersteps = 0;
  uint64_t pr_messages = 0;
  uint64_t cc_messages = 0;
  int64_t pr_sim_ns = 0;
  int64_t cc_sim_ns = 0;
};

AbAlgoRun RunAlgosAb(int num_threads) {
  AbAlgoRun out;
  Rng rng(2025);
  graph::Graph directed = graph::Rmat(9, 6, &rng);  // 512 vertices

  {  // PageRank (bulk) through an injected failure + compensation.
    runtime::SimClock clock;
    runtime::CostModel costs;
    runtime::MetricsRegistry metrics;
    runtime::StableStorage storage(&clock, &costs);
    runtime::FailureSchedule failures(
        std::vector<runtime::FailureEvent>{{3, {1}}});
    iteration::JobEnv env;
    env.clock = &clock;
    env.costs = &costs;
    env.metrics = &metrics;
    env.failures = &failures;
    env.storage = &storage;
    env.job_id = "ab-pr";

    algos::PageRankOptions options;
    options.num_partitions = 4;
    options.num_threads = num_threads;
    options.max_iterations = 10;
    algos::FixRanksCompensation fix(directed.num_vertices());
    core::OptimisticRecoveryPolicy policy(&fix);
    auto result = algos::RunPageRank(directed, options, env, &policy, nullptr);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.pr_ranks = result->ranks;
    out.pr_iterations = result->iterations;
    out.pr_sim_ns = clock.TotalNs();
    for (const auto& it : metrics.iterations()) {
      out.pr_messages += it.messages_shuffled;
    }
  }

  {  // Connected Components (delta) through an injected failure.
    graph::Graph undirected(directed.num_vertices(), /*directed=*/false);
    for (const graph::Edge& e : directed.edges()) {
      Status s = undirected.AddEdge(e.src, e.dst);
      EXPECT_TRUE(s.ok());
    }
    runtime::SimClock clock;
    runtime::CostModel costs;
    runtime::MetricsRegistry metrics;
    runtime::StableStorage storage(&clock, &costs);
    runtime::FailureSchedule failures(
        std::vector<runtime::FailureEvent>{{2, {3}}});
    iteration::JobEnv env;
    env.clock = &clock;
    env.costs = &costs;
    env.metrics = &metrics;
    env.failures = &failures;
    env.storage = &storage;
    env.job_id = "ab-cc";

    algos::ConnectedComponentsOptions options;
    options.num_partitions = 4;
    options.num_threads = num_threads;
    algos::FixComponentsCompensation fix(&undirected);
    core::OptimisticRecoveryPolicy policy(&fix);
    auto result = algos::RunConnectedComponents(undirected, options, env,
                                                &policy, nullptr);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.cc_labels = result->labels;
    out.cc_supersteps = result->supersteps_executed;
    out.cc_sim_ns = clock.TotalNs();
    for (const auto& it : metrics.iterations()) {
      out.cc_messages += it.messages_shuffled;
    }
  }
  return out;
}

TEST_P(ColumnarAbTest, AlgorithmsWithFailuresAreByteIdenticalToRecordPath) {
  AbAlgoRun run = RunAlgosAb(GetParam());
  ASSERT_EQ(run.pr_ranks.size(), 512u);
  ASSERT_EQ(run.cc_labels.size(), 512u);
  EXPECT_EQ(HashValues(run.pr_ranks), kPageRankRanksHash);
  EXPECT_EQ(HashValues(run.cc_labels), kCcLabelsHash);
  EXPECT_EQ(run.pr_iterations, kPageRankIterations);
  EXPECT_EQ(run.cc_supersteps, kCcSupersteps);
  EXPECT_EQ(run.pr_messages, kPageRankMessages);
  EXPECT_EQ(run.cc_messages, kCcMessages);
  EXPECT_EQ(run.pr_sim_ns, kPageRankSimNs);
  EXPECT_EQ(run.cc_sim_ns, kCcSimNs);
}

TEST_P(ColumnarAbTest, ColumnarRunMatchesSerialColumnarRun) {
  AbAlgoRun serial = RunAlgosAb(1);
  AbAlgoRun parallel = RunAlgosAb(GetParam());
  EXPECT_EQ(serial.pr_ranks, parallel.pr_ranks);
  EXPECT_EQ(serial.cc_labels, parallel.cc_labels);
  EXPECT_EQ(serial.pr_messages, parallel.pr_messages);
  EXPECT_EQ(serial.cc_messages, parallel.cc_messages);
  EXPECT_EQ(serial.pr_sim_ns, parallel.pr_sim_ns);
  EXPECT_EQ(serial.cc_sim_ns, parallel.cc_sim_ns);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ColumnarAbTest,
                         ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace flinkless

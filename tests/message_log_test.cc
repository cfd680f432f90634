// Tests for the outbound message log (runtime/message_log.h) and the
// confined replay built on it (Executor::Replay, DESIGN.md §14): channel
// round-trips, superstep rotation, budgeted spill/unspill, and — the
// contract recovery rests on — replayed partitions byte-identical to the
// partitions a full Execute produces, for every operator kind.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "dataflow/columnar.h"
#include "dataflow/executor.h"
#include "runtime/memory_manager.h"
#include "runtime/message_log.h"
#include "runtime/stable_storage.h"

namespace flinkless::runtime {
namespace {

using dataflow::Bindings;
using dataflow::ColumnarBatch;
using dataflow::ExecOptions;
using dataflow::ExecStats;
using dataflow::Executor;
using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;
using dataflow::ValueType;

PartitionedDataset MakeMessages(int parts, int records_per_part,
                                int64_t salt) {
  PartitionedDataset out(parts);
  for (int p = 0; p < parts; ++p) {
    for (int64_t i = 0; i < records_per_part; ++i) {
      out.partition(p).push_back(MakeRecord(salt + p, i));
    }
  }
  return out;
}

// ------------------------------------------------------- log mechanics --

TEST(MessageLogTest, AppendAndChannelRoundTrip) {
  MessageLog log({"state"});
  PartitionedDataset messages = MakeMessages(4, 3, 100);
  ASSERT_TRUE(log.Append("n0001.in", messages, nullptr).ok());

  EXPECT_TRUE(log.Has("n0001.in"));
  EXPECT_FALSE(log.Has("n0002.in"));
  EXPECT_EQ(log.num_channels(), 1u);
  EXPECT_EQ(log.appended_records(), 12u);
  EXPECT_GT(log.appended_bytes(), 0u);

  auto channel = log.Channel("n0001.in", nullptr);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  ASSERT_EQ((*channel)->num_partitions(), 4);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ((*channel)->partition(p), messages.partition(p)) << p;
  }

  EXPECT_FALSE(log.Channel("missing", nullptr).ok());
}

TEST(MessageLogTest, BeginSuperstepDropsPreviousChannels) {
  MessageLog log({"state"});
  ASSERT_TRUE(log.Append("n0001.in", MakeMessages(2, 2, 0), nullptr).ok());
  ASSERT_TRUE(log.Append("n0002.l", MakeMessages(2, 2, 7), nullptr).ok());
  EXPECT_EQ(log.num_channels(), 2u);

  log.BeginSuperstep(1);
  EXPECT_EQ(log.superstep(), 1);
  EXPECT_EQ(log.num_channels(), 0u);
  EXPECT_FALSE(log.Has("n0001.in"));
  // Rotation never resets the monotonic totals.
  EXPECT_EQ(log.appended_records(), 8u);
}

TEST(MessageLogTest, BudgetSpillsAndChannelReloads) {
  StableStorage storage(nullptr, nullptr);
  MemoryManager manager(/*budget_bytes=*/1);  // everything must spill
  MessageLog log({"state"});
  log.AttachMemoryManager(&manager, &storage, "job-x");

  PartitionedDataset a = MakeMessages(2, 4, 10);
  PartitionedDataset b = MakeMessages(2, 4, 20);
  ASSERT_TRUE(log.Append("n0001.in", a, nullptr).ok());
  ASSERT_TRUE(log.Append("n0002.in", b, nullptr).ok());
  // Append registers but never evicts (it runs mid-Execute); the owner
  // enforces the budget at the superstep boundary.
  EXPECT_GT(log.resident_bytes(), 0u);
  ASSERT_TRUE(manager.EnforceBudget(nullptr, nullptr).ok());
  EXPECT_EQ(log.resident_bytes(), 0u);
  EXPECT_EQ(storage.ListWithPrefix("spill/job-x/msglog/").size(), 2u);

  // Channel() unspills on demand and hands back the original bytes.
  auto channel = log.Channel("n0001.in", nullptr);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  for (int p = 0; p < 2; ++p) {
    EXPECT_EQ((*channel)->partition(p), a.partition(p)) << p;
  }
  EXPECT_EQ(manager.stats().unspills, 1u);
  EXPECT_GE(manager.stats().spills, 2u);

  // Rotation deletes the spill blobs of dropped channels.
  ASSERT_TRUE(manager.EnforceBudget(nullptr, nullptr).ok());
  log.BeginSuperstep(1);
  EXPECT_EQ(storage.ListWithPrefix("spill/job-x/msglog/").size(), 0u);
  EXPECT_EQ(manager.num_segments(), 0u);
}

// ------------------------------------------------------ confined replay --

/// A step plan shaped like the iteration drivers': a variant state source
/// joined with an invariant static input, then aggregated. Both the join
/// and the reduce sit behind shuffles, so replay serves the variant side
/// from the log and re-shuffles only the invariant side.
Plan BuildStepPlan() {
  Plan plan;
  auto state = plan.Source("state");
  auto edges = plan.Source("edges");
  auto joined = plan.Join(
      state, edges, {0}, {0},
      [](const Record& l, const Record& r) {
        return MakeRecord(r[1].AsInt64(), l[1].AsInt64() + 1);
      },
      "send");
  auto reduced = plan.ReduceByKey(
      joined, {0},
      [](const Record& x, const Record& y) {
        return MakeRecord(x[0].AsInt64(),
                          std::min(x[1].AsInt64(), y[1].AsInt64()));
      },
      "min", /*pre_combine=*/true);
  plan.Output(joined, "mid");
  plan.Output(reduced, "out");
  return plan;
}

/// A step plan that reaches every OpKind, with the variant state entering
/// through a join: Map and FlatMap with and without a batch impl, Filter,
/// Project, Union, a pre-combined ReduceByKey over the invariant edges
/// (Replay recomputes and re-shuffles it), GroupReduceByKey, CoGroup,
/// Distinct, and a Cross against a small invariant side.
Plan BuildAllOpsPlan() {
  Plan plan;
  auto state = plan.Source("state");
  auto edges = plan.Source("edges");
  auto consts = plan.Source("consts");
  auto send = plan.Join(
      state, edges, {0}, {0},
      [](const Record& l, const Record& r) {
        return MakeRecord(r[1].AsInt64(), l[1].AsInt64() + 1);
      },
      "send");
  auto scaled = plan.Map(
      send,
      [](const Record& r) {
        return MakeRecord(r[0].AsInt64(), r[1].AsInt64() * 2);
      },
      "scaled");
  plan.BatchImpl(scaled, [](const ColumnarBatch& in, ColumnarBatch* out) {
    out->Reset({ValueType::kInt64, ValueType::kInt64});
    out->MutableInt64Column(0) = in.Int64Column(0);
    std::vector<int64_t>& vals = out->MutableInt64Column(1);
    vals = in.Int64Column(1);
    for (int64_t& v : vals) v *= 2;
    out->FinishRows(in.num_rows());
  });
  auto shifted = plan.Map(
      scaled,
      [](const Record& r) {
        return MakeRecord(r[0].AsInt64(), r[1].AsInt64() + 1);
      },
      "shifted");
  auto fanned = plan.FlatMap(
      shifted,
      [](const Record& r, std::vector<Record>* out) {
        out->push_back(r);
        if (r[1].AsInt64() % 2 == 0) {
          out->push_back(MakeRecord(r[0].AsInt64(), r[1].AsInt64() + 100));
        }
      },
      "fanned");
  plan.BatchImpl(fanned, [](const ColumnarBatch& in, ColumnarBatch* out) {
    out->Reset({ValueType::kInt64, ValueType::kInt64});
    std::vector<int64_t>& keys = out->MutableInt64Column(0);
    std::vector<int64_t>& vals = out->MutableInt64Column(1);
    for (size_t i = 0; i < in.num_rows(); ++i) {
      const int64_t k = in.Int64Column(0)[i];
      const int64_t v = in.Int64Column(1)[i];
      keys.push_back(k);
      vals.push_back(v);
      if (v % 2 == 0) {
        keys.push_back(k);
        vals.push_back(v + 100);
      }
    }
    out->FinishRows(keys.size());
  });
  auto kept = plan.FlatMap(
      fanned,
      [](const Record& r, std::vector<Record>* out) {
        if (r[1].AsInt64() % 3 != 0) out->push_back(r);
      },
      "kept");
  auto filtered = plan.Filter(
      kept, [](const Record& r) { return r[1].AsInt64() % 5 != 0; },
      "filtered");
  auto swapped = plan.Project(filtered, {1, 0}, "swapped");
  auto out_sum = plan.ReduceByKey(
      edges, {0},
      [](const Record& x, const Record& y) {
        return MakeRecord(x[0].AsInt64(), x[1].AsInt64() + y[1].AsInt64());
      },
      "out-sum", /*pre_combine=*/true);
  auto mixed = plan.Union(filtered, out_sum, "mixed");
  auto grouped = plan.GroupReduceByKey(
      mixed, {0},
      [](const Record& key, const std::vector<Record>& group) {
        int64_t sum = 0;
        for (const Record& g : group) sum += g[1].AsInt64();
        return MakeRecord(key[0].AsInt64(),
                          static_cast<int64_t>(group.size()), sum);
      },
      "grouped");
  auto cogrouped = plan.CoGroup(
      grouped, out_sum, {0}, {0},
      [](const Record& key, const std::vector<Record>& l,
         const std::vector<Record>& r, std::vector<Record>* out) {
        out->push_back(MakeRecord(key[0].AsInt64(),
                                  static_cast<int64_t>(l.size()),
                                  static_cast<int64_t>(r.size())));
      },
      "cogrouped");
  // (left size, right size) pairs repeat across keys: Distinct has
  // duplicates to drop.
  auto sizes = plan.Project(cogrouped, {1, 2}, "sizes");
  auto uniq = plan.Distinct(sizes, {0}, "uniq");
  auto crossed = plan.Cross(
      uniq, consts,
      [](const Record& l, const Record& r) {
        return MakeRecord(l[0].AsInt64(), l[1].AsInt64() * r[0].AsInt64());
      },
      "crossed");
  plan.Output(swapped, "swapped");
  plan.Output(mixed, "mixed");
  plan.Output(grouped, "grouped");
  plan.Output(cogrouped, "cogrouped");
  plan.Output(uniq, "uniq");
  plan.Output(crossed, "crossed");
  return plan;
}

struct StepData {
  PartitionedDataset state;
  PartitionedDataset edges;
  PartitionedDataset consts;
};

StepData MakeStepData(int parts) {
  std::vector<Record> state;
  std::vector<Record> edges;
  for (int64_t v = 0; v < 64; ++v) {
    state.push_back(MakeRecord(v, v % 5));
    edges.push_back(MakeRecord(v, (v * 7 + 3) % 64));
    edges.push_back(MakeRecord(v, (v * 11 + 1) % 64));
  }
  StepData data;
  data.state = PartitionedDataset::HashPartitioned(state, {0}, parts);
  data.edges = PartitionedDataset::HashPartitioned(edges, {0}, parts);
  data.consts = PartitionedDataset::HashPartitioned(
      {MakeRecord(int64_t{2}), MakeRecord(int64_t{3})}, {0}, parts);
  return data;
}

class ReplayTest : public ::testing::TestWithParam<int> {};

TEST_P(ReplayTest, ReplayedPartitionsMatchExecuteByteForByte) {
  const int parts = 4;
  StepData data = MakeStepData(parts);
  Bindings bindings{{"state", &data.state},
                    {"edges", &data.edges},
                    {"consts", &data.consts}};
  // Replay sees only the static bindings, exactly like the drivers after a
  // failure destroyed the volatile state.
  Bindings statics{{"edges", &data.edges}, {"consts", &data.consts}};

  for (const Plan& plan : {BuildStepPlan(), BuildAllOpsPlan()}) {
    ExecOptions options;
    options.num_partitions = parts;
    options.num_threads = GetParam();
    MessageLog log({"state"});
    options.message_log = &log;
    Executor executor(options);

    ExecStats exec_stats;
    auto executed = executor.Execute(plan, bindings, &exec_stats);
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    EXPECT_GT(log.num_channels(), 0u);
    EXPECT_EQ(exec_stats.messages_replayed, 0u);

    for (const std::vector<int>& lost :
         {std::vector<int>{2}, std::vector<int>{0, 3},
          std::vector<int>{0, 1, 2, 3}}) {
      ExecStats replay_stats;
      auto replayed =
          executor.Replay(plan, statics, lost, &log, &replay_stats);
      ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
      EXPECT_GT(replay_stats.messages_replayed, 0u);
      for (const auto& [output, node] : plan.outputs()) {
        const PartitionedDataset& full = executed->at(output);
        const PartitionedDataset& confined = replayed->at(output);
        EXPECT_GT(full.NumRecords(), 0u) << output;
        ASSERT_EQ(confined.num_partitions(), parts);
        for (int p : lost) {
          EXPECT_EQ(confined.partition(p), full.partition(p))
              << output << " partition " << p << " with "
              << static_cast<int>(lost.size()) << " lost";
        }
      }
    }
  }
}

TEST_P(ReplayTest, LoggingIsByteInvisibleToExecute) {
  const int parts = 4;
  Plan plan = BuildStepPlan();
  StepData data = MakeStepData(parts);
  Bindings bindings{{"state", &data.state}, {"edges", &data.edges}};

  ExecOptions plain_options;
  plain_options.num_partitions = parts;
  plain_options.num_threads = GetParam();
  Executor plain(plain_options);
  ExecStats plain_stats;
  auto unlogged = plain.Execute(plan, bindings, &plain_stats);
  ASSERT_TRUE(unlogged.ok());

  ExecOptions logged_options = plain_options;
  MessageLog log({"state"});
  logged_options.message_log = &log;
  Executor with_log(logged_options);
  ExecStats logged_stats;
  auto logged = with_log.Execute(plan, bindings, &logged_stats);
  ASSERT_TRUE(logged.ok());

  for (const char* output : {"mid", "out"}) {
    const PartitionedDataset& a = unlogged->at(output);
    const PartitionedDataset& b = logged->at(output);
    for (int p = 0; p < parts; ++p) {
      EXPECT_EQ(a.partition(p), b.partition(p)) << output << " " << p;
    }
  }
  EXPECT_EQ(plain_stats.messages_shuffled, logged_stats.messages_shuffled);
  EXPECT_EQ(plain_stats.records_processed, logged_stats.records_processed);
}

TEST_P(ReplayTest, ReplayReadsSpilledChannels) {
  // Same byte-identity with the log under a 1-byte budget: every channel
  // spills at the superstep boundary and Replay reloads on demand.
  const int parts = 4;
  Plan plan = BuildStepPlan();
  StepData data = MakeStepData(parts);
  Bindings bindings{{"state", &data.state}, {"edges", &data.edges}};

  StableStorage storage(nullptr, nullptr);
  MemoryManager manager(/*budget_bytes=*/1);
  MessageLog log({"state"});
  log.AttachMemoryManager(&manager, &storage, "replay-job");

  ExecOptions options;
  options.num_partitions = parts;
  options.num_threads = GetParam();
  options.message_log = &log;
  Executor executor(options);
  auto executed = executor.Execute(plan, bindings, nullptr);
  ASSERT_TRUE(executed.ok());
  ASSERT_TRUE(manager.EnforceBudget(nullptr, nullptr).ok());
  EXPECT_EQ(log.resident_bytes(), 0u);

  Bindings statics{{"edges", &data.edges}};
  auto replayed = executor.Replay(plan, statics, {1, 2}, &log, nullptr);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_GT(manager.stats().unspills, 0u);
  for (const char* output : {"mid", "out"}) {
    for (int p : {1, 2}) {
      EXPECT_EQ(replayed->at(output).partition(p),
                executed->at(output).partition(p))
          << output << " " << p;
    }
  }
}

TEST(ReplayTest, MissingLogChannelIsNotFound) {
  const int parts = 4;
  Plan plan = BuildStepPlan();
  StepData data = MakeStepData(parts);
  ExecOptions options;
  options.num_partitions = parts;
  Executor executor(options);
  // Log was never filled by an Execute: replay must fail loudly, not
  // fabricate empty partitions.
  MessageLog empty_log({"state"});
  Bindings statics{{"edges", &data.edges}};
  auto replayed = executor.Replay(plan, statics, {1}, &empty_log, nullptr);
  EXPECT_FALSE(replayed.ok());
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ReplayTest, ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace flinkless::runtime

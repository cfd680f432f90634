#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <random>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataflow/columnar.h"
#include "dataflow/exec_cache.h"
#include "dataflow/executor.h"
#include "runtime/cost_model.h"
#include "runtime/sim_clock.h"

namespace perfbench {

using flinkless::dataflow::PartitionedDataset;
using flinkless::dataflow::Record;
using flinkless::runtime::SpanKind;
using flinkless::runtime::SpanKindName;
using flinkless::runtime::TraceEvent;

namespace {

bool IsJobLevelSpan(const TraceEvent& e) {
  return e.kind == TraceEvent::Kind::kSpan && e.partition < 0;
}

/// Which layer a span category belongs to, for the printed table.
const char* LayerOf(const std::string& category) {
  static const std::map<std::string, const char*> layers = {
      {SpanKindName(SpanKind::kOperator), "dataflow"},
      {SpanKindName(SpanKind::kShuffleScatter), "dataflow"},
      {SpanKindName(SpanKind::kShuffleGather), "dataflow"},
      {SpanKindName(SpanKind::kSolutionUpdate), "iteration"},
      {SpanKindName(SpanKind::kCheckpoint), "core"},
      {SpanKindName(SpanKind::kCompensation), "core"},
      {SpanKindName(SpanKind::kCacheSpill), "runtime"},
      {SpanKindName(SpanKind::kCacheUnspill), "runtime"},
      {SpanKindName(SpanKind::kMessageLogAppend), "runtime"},
      {SpanKindName(SpanKind::kMessageLogReplay), "runtime"},
      {SpanKindName(SpanKind::kServerPublish), "server"},
  };
  auto it = layers.find(category);
  return it == layers.end() ? "?" : it->second;
}

double MsOf(int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

void DigestBytes(uint64_t* digest, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    *digest ^= bytes[i];
    *digest *= 1099511628211ull;
  }
}

LayerFold FoldLayers(const JobRun& run) {
  LayerFold fold;
  // Job-level spans of every timeline in NowNs() time, with their self
  // time: duration minus their job-level children. Per-partition spans run
  // on pool workers inside their parent and are not orchestration wall.
  struct Attributed {
    int64_t start_ns;
    int64_t self_ns;
    const std::string* category;
  };
  std::vector<Attributed> spans;
  std::vector<std::pair<int64_t, int64_t>> windows = run.windows;
  for (const Timeline& timeline : run.timelines) {
    fold.dropped_events += timeline.snapshot.dropped;
    std::unordered_map<uint64_t, int64_t> child_ns;
    for (const TraceEvent& e : timeline.snapshot.events) {
      if (IsJobLevelSpan(e) && e.parent_seq != 0) {
        child_ns[e.parent_seq] += e.wall_dur_ns;
      }
    }
    for (const TraceEvent& e : timeline.snapshot.events) {
      if (!IsJobLevelSpan(e)) continue;
      const int64_t start = e.wall_ts_ns + timeline.offset_ns;
      if (e.category == SpanKindName(SpanKind::kIteration)) {
        // Supersteps are the windows unless the run brought its own; an
        // iteration span of the server's jobs also covers the wait for the
        // next turn, so it is never attributed.
        if (run.windows.empty()) {
          windows.emplace_back(start, start + e.wall_dur_ns);
        }
        continue;
      }
      auto it = child_ns.find(e.seq);
      const int64_t self =
          e.wall_dur_ns - (it == child_ns.end() ? 0 : it->second);
      spans.push_back({start, self, &e.category});
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const Attributed& a, const Attributed& b) {
              return a.start_ns < b.start_ns;
            });
  std::sort(windows.begin(), windows.end());

  for (size_t w = 0; w < windows.size(); ++w) {
    const auto [start, end] = windows[w];
    const double wall_ms = MsOf(end - start);
    double attributed_ms = 0.0;
    double min_self_ms = 0.0;
    auto it = std::lower_bound(spans.begin(), spans.end(), start,
                               [](const Attributed& a, int64_t t) {
                                 return a.start_ns < t;
                               });
    for (; it != spans.end() && it->start_ns <= end; ++it) {
      const double ms = MsOf(it->self_ns);
      fold.self_ms[*it->category] += ms;
      attributed_ms += ms;
      min_self_ms = std::min(min_self_ms, ms);
    }
    fold.wall_ms += wall_ms;
    fold.other_ms += wall_ms - attributed_ms;
    ++fold.windows;

    // The layers plus the remainder add up to the wall by construction;
    // what can break is the attribution: spans that overlap or are counted
    // twice push the layers past the wall, and a child span outlasting its
    // parent leaves a negative self time.
    const double tolerance_ms = kLayerSumShare * wall_ms + kLayerSumSlackMs;
    const double excess_ms = attributed_ms - wall_ms;
    if (excess_ms > tolerance_ms || min_self_ms < -kLayerSumSlackMs) {
      if (fold.violations == 0) {
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "window %zu: wall %.3f ms, layers %.3f ms (tolerance "
                      "%.3f ms), smallest self time %.3f ms",
                      w, wall_ms, attributed_ms, tolerance_ms, min_self_ms);
        fold.first_violation = buf;
      }
      ++fold.violations;
    }
  }
  if (run.windows.empty()) {
    int64_t timed_ns = 0;
    for (int64_t ns : run.superstep_wall_ns) timed_ns += ns;
    fold.untimed_ms = fold.wall_ms - MsOf(timed_ns);
    if (run.superstep_wall_ns.size() != windows.size()) {
      ++fold.violations;
      char buf[96];
      std::snprintf(buf, sizeof(buf), " %zu traced supersteps vs %zu recorded",
                    windows.size(), run.superstep_wall_ns.size());
      fold.first_violation += buf;
    }
  }
  return fold;
}

void PrintLayerFold(const std::string& workload, const LayerFold& fold) {
  std::printf("layer-sum %s: %d windows, wall %.3f ms, tolerance %.0f%% + "
              "%.2f ms per window, %d violation(s)%s%s\n",
              workload.c_str(), fold.windows, fold.wall_ms,
              kLayerSumShare * 100.0, kLayerSumSlackMs, fold.violations,
              fold.violations > 0 ? ": " : "",
              fold.first_violation.c_str());
  const double wall = fold.wall_ms > 0 ? fold.wall_ms : 1.0;
  for (const auto& [category, ms] : fold.self_ms) {
    std::printf("  %-9s %-16s %12.3f ms  %6.2f%%\n", LayerOf(category),
                category.c_str(), ms, 100.0 * ms / wall);
  }
  std::printf("  %-9s %-16s %12.3f ms  %6.2f%%  (unattributed share)\n",
              "iteration", "driver_other", fold.other_ms,
              100.0 * fold.other_ms / wall);
  if (fold.untimed_ms != 0.0) {
    std::printf("  traced supersteps exceed IterationStats::wall_time_ns by "
                "%.3f ms (%.2f%%)\n",
                fold.untimed_ms, 100.0 * fold.untimed_ms / wall);
  }
  if (fold.dropped_events > 0) {
    std::printf("  warning: %llu trace events dropped\n",
                static_cast<unsigned long long>(fold.dropped_events));
  }
}

void MeasureLayerCalls(const LayerCallInputs& in, Report* report) {
  namespace df = flinkless::dataflow;
  constexpr int kReps = 5;
  Outcome& outcome = report->outcome;

  flinkless::runtime::SimClock clock;
  flinkless::runtime::CostModel costs;
  df::ExecCache cache(in.volatile_bindings);
  df::ExecOptions options;
  options.num_partitions = kPartitions;
  options.num_threads = kThreads;
  options.clock = &clock;
  options.costs = &costs;
  options.cache = &cache;
  df::Executor executor(options);

  // Executor::Execute of the step plan, cache warm.
  {
    auto warm = executor.Execute(*in.plan, in.bindings, nullptr);
    bool ok = warm.ok();
    std::vector<double> ms;
    for (int r = 0; ok && r < kReps; ++r) {
      const int64_t t0 = NowNs();
      auto again = executor.Execute(*in.plan, in.bindings, nullptr);
      ms.push_back(MsOf(NowNs() - t0));
      ok = again.ok() && again->size() == warm->size();
      for (const auto& [name, ds] : *warm) {
        if (!ok) break;
        auto it = again->find(name);
        ok = it != again->end() &&
             df::SerializePartitionedDataset(it->second) ==
                 df::SerializePartitionedDataset(ds);
      }
    }
    outcome.Op(ok, "layer call Executor::Execute: outputs differ across "
                   "repetitions or the call failed");
    report->Add("dataflow.execute_step_ms", Median(ms), "ms");
  }

  // Executor::Shuffle of the edges on their destination column.
  {
    const double records = static_cast<double>(in.edges->NumRecords());
    std::vector<double> seconds;
    bool ok = true;
    for (int r = 0; r < kReps; ++r) {
      df::ExecStats stats;
      const int64_t t0 = NowNs();
      PartitionedDataset out = executor.Shuffle(*in.edges, {1}, &stats);
      seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      ok = ok && out.NumRecords() == in.edges->NumRecords() &&
           out.IsPartitionedBy({1});
    }
    outcome.Op(ok, "layer call Executor::Shuffle: records lost or "
                   "misrouted");
    report->Add("dataflow.shuffle_mrec_s", records / Median(seconds) / 1e6,
                "Mrec/s");
  }

  // FlatKeyIndex::Build over the edges' source column, then
  // FindFirstStripe with every vertex of the state as a probe key.
  {
    std::vector<df::FlatKeyIndex> index(kPartitions);
    std::vector<double> build_ms;
    for (int r = 0; r < kReps; ++r) {
      const int64_t t0 = NowNs();
      for (int p = 0; p < kPartitions; ++p) {
        index[p].Build(in.edges->partition(p), {0});
      }
      build_ms.push_back(MsOf(NowNs() - t0));
    }
    std::vector<std::vector<int64_t>> keys(kPartitions);
    std::vector<std::vector<uint64_t>> hashes(kPartitions);
    std::vector<std::vector<int32_t>> found(kPartitions);
    size_t total_keys = 0;
    bool ok = true;
    for (int p = 0; p < kPartitions; ++p) {
      ok = ok && index[p].key64_probe_ready();
      for (const Record& r : in.state->partition(p)) {
        keys[p].push_back(r[0].AsInt64());
        hashes[p].push_back(df::HashKey(r, {0}));
      }
      found[p].resize(keys[p].size());
      total_keys += keys[p].size();
    }
    std::vector<double> probe_ns;
    for (int r = 0; ok && r < 4 * kReps; ++r) {
      const int64_t t0 = NowNs();
      for (int p = 0; p < kPartitions; ++p) {
        index[p].FindFirstStripe(keys[p].data(), hashes[p].data(),
                                 keys[p].size(), found[p].data());
      }
      probe_ns.push_back(static_cast<double>(NowNs() - t0));
    }
    for (int p = 0; ok && p < kPartitions; ++p) {
      const auto& rows = in.edges->partition(p);
      for (size_t i = 0; ok && i < keys[p].size(); ++i) {
        const int32_t row = found[p][i];
        ok = row < 0 || (static_cast<size_t>(row) < rows.size() &&
                         rows[row][0].AsInt64() == keys[p][i]);
      }
    }
    outcome.Op(ok, "layer call FlatKeyIndex: a probe returned a row with "
                   "another key");
    report->Add("dataflow.index_build_ms", Median(build_ms), "ms");
    report->Add("dataflow.index_probe_ns_key",
                Median(probe_ns) / static_cast<double>(std::max<size_t>(
                                       total_keys, 1)),
                "ns/key");
  }

  // SerializePartitionedDataset / DeserializePartitionedDataset round trip.
  {
    std::vector<double> mb_s;
    bool ok = true;
    for (int r = 0; r < kReps; ++r) {
      const int64_t t0 = NowNs();
      std::vector<uint8_t> bytes = df::SerializePartitionedDataset(*in.state);
      auto back = df::DeserializePartitionedDataset(bytes);
      const int64_t t2 = NowNs();
      ok = ok && back.ok() && df::SerializePartitionedDataset(*back) == bytes;
      mb_s.push_back(static_cast<double>(bytes.size()) / 1e6 /
                     (static_cast<double>(t2 - t0) / 1e9));
    }
    outcome.Op(ok, "layer call dataset serde: round trip changed the data");
    report->Add("dataflow.serde_mb_s", Median(mb_s), "MB/s");
  }
}

std::unique_ptr<flinkless::server::ReadView> PublishConverged(
    int64_t num_vertices,
    const std::function<void(flinkless::server::ReadView*)>& publish,
    JobRun* run) {
  using flinkless::dataflow::MakeRecord;
  auto view = std::make_unique<flinkless::server::ReadView>(
      flinkless::dataflow::KeyColumns{0}, kPartitions);
  // A read of a cold partition marks it wanted; the publish below then
  // materializes every partition.
  std::set<int> touched;
  for (int64_t v = 0; v < num_vertices && touched.size() < kPartitions;
       ++v) {
    touched.insert(view->Lookup(MakeRecord(v)).partition);
  }
  const int64_t t0 = NowNs();
  publish(view.get());
  run->publish_ms += MsOf(NowNs() - t0);
  return view;
}

BackgroundReader::BackgroundReader(flinkless::server::ReadView* view,
                                   int64_t num_vertices, std::mt19937_64* rng,
                                   Check check, JobRun* run)
    : view_(view),
      num_vertices_(num_vertices),
      rng_(rng),
      check_(std::move(check)),
      run_(run) {
  if (view_ != nullptr) thread_ = std::thread([this] { Loop(); });
}

void BackgroundReader::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void BackgroundReader::Loop() {
  using flinkless::dataflow::MakeRecord;
  using flinkless::server::ReadView;
  std::uniform_int_distribution<int64_t> pick(0, num_vertices_ - 1);
  std::vector<Record> keys(kBatchKeys);
  std::vector<ReadView::LookupResult> answers(kBatchKeys);
  while (!stop_.load()) {
    for (Record& key : keys) key = MakeRecord(pick(*rng_));
    const int64_t start = NowNs();
    for (int i = 0; i < kBatchKeys; ++i) answers[i] = view_->Lookup(keys[i]);
    run_->read_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    ++run_->read_ops;
    ++run_->read_attempts;
    bool ok = true;
    for (int i = 0; i < kBatchKeys; ++i) {
      ++run_->read_keys;
      const bool found = answers[i].hit == ReadView::Hit::kFound;
      run_->read_found += found ? 1 : 0;
      ok = ok && found && check_(keys[i][0].AsInt64(), *answers[i].record);
    }
    if (!ok) ++run_->read_ops_failed;
    std::this_thread::sleep_for(std::chrono::microseconds(kReadPeriodUs));
  }
}

}  // namespace perfbench

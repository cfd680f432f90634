#include "dataflow/executor.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "dataflow/columnar.h"
#include "dataflow/exec_cache.h"
#include "runtime/message_log.h"

namespace flinkless::dataflow {

namespace {

/// Message-log channel id for plan node `id`'s shuffled input arriving on
/// `port` ("in" for single-input shuffles, "l"/"r" for join/cogroup sides).
/// Node ids are append-ordered per plan, so the id set is stable across
/// supersteps of one job — which is what ties Execute's appends to
/// Replay's reads.
std::string MsglogChannel(int id, const char* port) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "n%04d.%s", id, port);
  return buf;
}

// Materialized groups for cogroup, whose UDF takes whole groups of both
// sides by reference — something no flat index can hand out. The sweep
// sorts the merged key set once, so hash order never leaks.
CachedGroups GroupByKey(const std::vector<Record>& records,
                        const KeyColumns& key) {
  CachedGroups groups;
  groups.reserve(records.size());
  for (const Record& r : records) {
    groups[ExtractKey(r, key)].push_back(r);
  }
  return groups;
}

// ------------------------------------------------ batch kernels (§12) ----
//
// Flat open-addressing tables keyed on columns in place: no per-record key
// materialization, no map nodes. Grouping follows arrival order and every
// key-sorted emission sorts once, so outputs are a pure function of the
// partition's rows.

/// Open-addressing key -> dense-slot resolver. Slots are handed out in
/// first-arrival order; the caller owns the per-slot payload (accumulator
/// records, emitted rows) and supplies the equality predicate against it.
class FlatSlotMap {
 public:
  explicit FlatSlotMap(size_t expected) {
    size_t cap = 16;
    while (cap < 2 * expected) cap <<= 1;
    table_.assign(cap, -1);
    mask_ = cap - 1;
    hashes_.reserve(expected);
  }

  /// Slot of the key with hash `h` and equality `eq(slot)`, inserting the
  /// next dense slot when absent (*inserted). After an insert the caller
  /// must append the matching payload so eq can see it on later probes.
  template <typename Eq>
  int32_t FindOrInsert(uint64_t h, const Eq& eq, bool* inserted) {
    if ((size_ + 1) * 2 > table_.size()) Grow();
    uint64_t b = h & mask_;
    for (;;) {
      const int32_t slot = table_[b];
      if (slot < 0) {
        table_[b] = static_cast<int32_t>(size_);
        hashes_.push_back(h);
        *inserted = true;
        return static_cast<int32_t>(size_++);
      }
      if (hashes_[slot] == h && eq(slot)) {
        *inserted = false;
        return slot;
      }
      b = (b + 1) & mask_;
    }
  }

  size_t size() const { return size_; }

 private:
  void Grow() {
    const size_t cap = table_.size() * 2;
    table_.assign(cap, -1);
    mask_ = cap - 1;
    for (size_t s = 0; s < size_; ++s) {
      uint64_t b = hashes_[s] & mask_;
      while (table_[b] >= 0) b = (b + 1) & mask_;
      table_[b] = static_cast<int32_t>(s);
    }
  }

  std::vector<int32_t> table_;
  std::vector<uint64_t> hashes_;
  uint64_t mask_ = 0;
  size_t size_ = 0;
};

/// Generic reduce of one partition: accumulate in first-arrival order
/// through a FlatSlotMap, then emit accumulators sorted on their key
/// columns. `validate` enforces the combiner-keeps-the-key contract
/// (post-shuffle phase only).
Status FlatReducePartition(const std::vector<Record>& in,
                           const KeyColumns& key, const CombineFn& combine,
                           bool validate, const std::string& node_name,
                           std::vector<Record>* out) {
  std::vector<Record> acc;
  acc.reserve(in.size());
  FlatSlotMap slots(in.size());
  // Single-int64-key fast path: hash the whole key column in one kernel
  // stripe and compare slots on the flat array (each slot remembers its
  // first-arrival key — equal to the accumulator's key under the
  // combiner-keeps-the-key contract the validate phase enforces).
  std::vector<int64_t> key64;
  std::vector<uint64_t> hashes;
  std::vector<int64_t> slot_key;
  const bool fast = ExtractKey64(in, key, &key64);
  if (fast) {
    hashes.resize(in.size());
    simd::ActiveKernels().hash_key64(key64.data(), in.size(), hashes.data());
    slot_key.reserve(in.size());
  }
  for (size_t i = 0; i < in.size(); ++i) {
    const Record& r = in[i];
    const uint64_t h = fast ? hashes[i] : HashKey(r, key);
    bool inserted = false;
    int32_t slot;
    if (fast) {
      slot = slots.FindOrInsert(
          h, [&](int32_t s) { return slot_key[s] == key64[i]; }, &inserted);
      if (inserted) slot_key.push_back(key64[i]);
    } else {
      slot = slots.FindOrInsert(
          h, [&](int32_t s) { return KeysEqual(acc[s], key, r, key); },
          &inserted);
    }
    if (inserted) {
      acc.push_back(r);
      continue;
    }
    Record folded = combine(acc[slot], r);
    if (validate && !KeysEqual(folded, key, r, key)) {
      return Status::Internal("ReduceByKey '" + node_name +
                              "': combiner changed the key (got " +
                              RecordToString(folded) + ")");
    }
    acc[slot] = std::move(folded);
  }
  std::vector<int32_t> order(acc.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return KeyLess(acc[a], acc[b], key);
  });
  out->reserve(out->size() + order.size());
  for (int32_t s : order) out->push_back(std::move(acc[s]));
  return Status::OK();
}

/// Typed columnar reduce of one partition (DESIGN.md §15): when the
/// combiner is declared (Plan::DeclareReduce) and the partition has the
/// declared shape — records (int64 key, value), key == {0}, value column 1
/// of the declared type — the fold runs over scalar accumulators on flat
/// columns, never materializing intermediate Records. Returns false on any
/// shape mismatch; the caller falls back to FlatReducePartition. Fold and
/// emission order match the generic path exactly: arrival-order folding
/// per key (kSumDouble strictly sequential — FP association is
/// load-bearing), emission sorted by key (KeyLess on an int64 key is
/// numeric order). Never consults the SIMD level for the path choice, so
/// outputs cannot depend on it.
bool FlatReduceTypedPartition(const std::vector<Record>& in,
                              const KeyColumns& key, ReduceKind kind,
                              int value_col, std::vector<Record>* out) {
  if (key.size() != 1 || key[0] != 0 || value_col != 1) return false;
  const bool want_double = kind == ReduceKind::kSumDouble;
  for (const Record& r : in) {
    if (r.size() != 2 || !r[0].is_int64()) return false;
    if (want_double ? !r[1].is_double() : !r[1].is_int64()) return false;
  }
  if (in.empty()) return true;

  std::vector<int64_t> keys(in.size());
  for (size_t i = 0; i < in.size(); ++i) keys[i] = in[i][0].AsInt64();
  const simd::Kernels& kernels = simd::ActiveKernels();

  if (kernels.all_equal_i64(keys.data(), keys.size(), keys[0])) {
    // Single-group partition (the shape post-shuffle global aggregates
    // like PageRank's dangling mass always have): one kernel fold.
    if (want_double) {
      double sum = in[0][1].AsDouble();
      for (size_t i = 1; i < in.size(); ++i) sum += in[i][1].AsDouble();
      out->push_back(MakeRecord(keys[0], sum));
      return true;
    }
    std::vector<int64_t> vals(in.size());
    for (size_t i = 0; i < in.size(); ++i) vals[i] = in[i][1].AsInt64();
    int64_t folded = 0;
    switch (kind) {
      case ReduceKind::kSumInt64:
        folded = kernels.sum_i64(vals.data(), vals.size());
        break;
      case ReduceKind::kMinInt64:
        folded = kernels.min_i64(vals.data(), vals.size());
        break;
      case ReduceKind::kMaxInt64:
        folded = kernels.max_i64(vals.data(), vals.size());
        break;
      case ReduceKind::kSumDouble:
      case ReduceKind::kNone:
        return false;  // unreachable (want_double handled above)
    }
    out->push_back(MakeRecord(keys[0], folded));
    return true;
  }

  std::vector<uint64_t> hashes(keys.size());
  kernels.hash_key64(keys.data(), keys.size(), hashes.data());
  FlatSlotMap slots(in.size());
  std::vector<int64_t> slot_key;
  slot_key.reserve(in.size());
  std::vector<int64_t> acc_i;
  std::vector<double> acc_d;
  for (size_t i = 0; i < in.size(); ++i) {
    bool inserted = false;
    const int32_t slot = slots.FindOrInsert(
        hashes[i], [&](int32_t s) { return slot_key[s] == keys[i]; },
        &inserted);
    if (want_double) {
      const double v = in[i][1].AsDouble();
      if (inserted) {
        slot_key.push_back(keys[i]);
        acc_d.push_back(v);
      } else {
        acc_d[slot] += v;  // arrival order, same association as combine()
      }
      continue;
    }
    const int64_t v = in[i][1].AsInt64();
    if (inserted) {
      slot_key.push_back(keys[i]);
      acc_i.push_back(v);
      continue;
    }
    switch (kind) {
      case ReduceKind::kSumInt64:
        acc_i[slot] = static_cast<int64_t>(static_cast<uint64_t>(acc_i[slot]) +
                                           static_cast<uint64_t>(v));
        break;
      case ReduceKind::kMinInt64:
        if (v < acc_i[slot]) acc_i[slot] = v;  // ties keep the accumulator
        break;
      case ReduceKind::kMaxInt64:
        if (v > acc_i[slot]) acc_i[slot] = v;
        break;
      case ReduceKind::kSumDouble:
      case ReduceKind::kNone:
        break;  // unreachable
    }
  }
  std::vector<int32_t> order(slot_key.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return slot_key[a] < slot_key[b];
  });
  out->reserve(out->size() + order.size());
  for (int32_t s : order) {
    if (want_double) {
      out->push_back(MakeRecord(slot_key[s], acc_d[s]));
    } else {
      out->push_back(MakeRecord(slot_key[s], acc_i[s]));
    }
  }
  return true;
}

/// Join probe of one partition against `index` over `build`: emits
/// join_fn(build row, probe) in probe order, each key's build rows in
/// arrival order. When the index runs in key64 mode and the probe key
/// extracts to a flat int64 column (DESIGN.md §15), the probe keys are
/// hashed in one kernel stripe and every group head is resolved with
/// FindFirstStripe before emitting; otherwise each probe runs FindFirst.
/// Both resolve the same heads, so the output does not depend on the
/// route.
void JoinProbe(const FlatKeyIndex& index, const std::vector<Record>& build,
               const std::vector<Record>& probes, const KeyColumns& probe_key,
               const JoinFn& join_fn, std::vector<Record>* out) {
  std::vector<int64_t> keys;
  if (index.key64_probe_ready() && ExtractKey64(probes, probe_key, &keys)) {
    std::vector<uint64_t> hashes(keys.size());
    simd::ActiveKernels().hash_key64(keys.data(), keys.size(), hashes.data());
    std::vector<int32_t> first(keys.size());
    index.FindFirstStripe(keys.data(), hashes.data(), keys.size(),
                          first.data());
    for (size_t i = 0; i < probes.size(); ++i) {
      for (int32_t row = first[i]; row >= 0; row = index.Next(row)) {
        out->push_back(join_fn(build[row], probes[i]));
      }
    }
    return;
  }
  for (const Record& r : probes) {
    int32_t row = index.FindFirst(r, probe_key, HashKey(r, probe_key));
    for (; row >= 0; row = index.Next(row)) {
      out->push_back(join_fn(build[row], r));
    }
  }
}

/// Observes each build-side group's chain length into the probe-chain
/// histogram of `metrics` (null = off). Safe from worker threads
/// (histograms merge commutatively).
void ObserveProbeChains(runtime::MetricsSink* metrics,
                        const FlatKeyIndex& index) {
  if (metrics == nullptr) return;
  runtime::Histogram local;
  for (int32_t head : index.heads()) {
    int64_t chain = 0;
    for (int32_t row = head; row >= 0; row = index.Next(row)) ++chain;
    local.Observe(chain);
  }
  metrics->Merge(runtime::metric::kHistProbeChain, local);
}

const std::vector<Record> kEmptyGroup;

// ------------------------------------------------ partition kernels ------
//
// One body per operator over one partition's rows. Execute runs them
// partition-parallel over all partitions; Replay runs them serially over
// the demanded partitions. Sharing the bodies is what makes a replayed
// partition byte-identical to the one Execute produced (DESIGN.md §14).
// Shuffles, caching, stats, and clock charges stay with the callers; each
// kernel fills one fresh (empty) output partition.

/// Map/FlatMap: with `schema` set, the partition crosses the batched UDF
/// boundary (DESIGN.md §15) once as a ColumnarBatch — a Map's batch impl
/// must keep the row count; without it, the record fn runs per record.
Status MapPartition(const PlanNode& node, const BatchSchema* schema,
                    const std::vector<Record>& rows,
                    std::vector<Record>* out) {
  if (schema != nullptr) {
    if (rows.empty()) return Status::OK();
    ColumnarBatch batch = ColumnarBatch::FromRecordsUnchecked(rows, *schema);
    ColumnarBatch result;
    node.batch_map_fn(batch, &result);
    if (node.kind == OpKind::kMap && result.num_rows() != rows.size()) {
      return Status::Internal("Map '" + node.name + "': batch impl produced " +
                              std::to_string(result.num_rows()) +
                              " rows from " + std::to_string(rows.size()));
    }
    *out = result.ToRecords();
    return Status::OK();
  }
  if (node.kind == OpKind::kMap) {
    out->reserve(rows.size());
    for (const Record& r : rows) out->push_back(node.map_fn(r));
  } else {
    for (const Record& r : rows) node.flat_map_fn(r, out);
  }
  return Status::OK();
}

void FilterPartition(const PlanNode& node, const std::vector<Record>& rows,
                     std::vector<Record>* out) {
  for (const Record& r : rows) {
    if (node.filter_fn(r)) out->push_back(r);
  }
}

Status ProjectPartition(const PlanNode& node, const std::vector<Record>& rows,
                        std::vector<Record>* out) {
  for (const Record& r : rows) {
    Record projected;
    projected.reserve(node.project_columns.size());
    for (int col : node.project_columns) {
      if (col < 0 || static_cast<size_t>(col) >= r.size()) {
        return Status::OutOfRange("Project '" + node.name + "': column " +
                                  std::to_string(col) +
                                  " out of range for record " +
                                  RecordToString(r));
      }
      projected.push_back(r[col]);
    }
    out->push_back(std::move(projected));
  }
  return Status::OK();
}

/// Appends `rows` to `out`. `dead` is either null or `rows` itself, passed
/// by a caller that owns the partition and reads it no more: its records
/// move instead of being copied.
void AppendRows(const std::vector<Record>& rows, std::vector<Record>* dead,
                std::vector<Record>* out) {
  if (dead == nullptr) {
    out->insert(out->end(), rows.begin(), rows.end());
    return;
  }
  out->insert(out->end(), std::make_move_iterator(dead->begin()),
              std::make_move_iterator(dead->end()));
  std::vector<Record>().swap(*dead);
}

/// Union of one partition: a's rows, then b's. `a_dead`/`b_dead` as in
/// AppendRows.
void UnionPartition(const std::vector<Record>& a, const std::vector<Record>& b,
                    std::vector<Record>* out,
                    std::vector<Record>* a_dead = nullptr,
                    std::vector<Record>* b_dead = nullptr) {
  out->reserve(a.size() + b.size());
  AppendRows(a, a_dead, out);
  AppendRows(b, b_dead, out);
}

/// Cross of one partition's left rows against the whole broadcast right
/// side.
void CrossPartition(const PlanNode& node, const std::vector<Record>& left,
                    const std::vector<Record>& right_all,
                    std::vector<Record>* out) {
  out->reserve(left.size() * right_all.size());
  for (const Record& l : left) {
    for (const Record& r : right_all) out->push_back(node.join_fn(l, r));
  }
}

/// ReduceByKey fold of one partition: the typed fold when the combiner is
/// declared and the rows have its shape, else the generic fold.
Status ReducePartition(const PlanNode& node, const std::vector<Record>& rows,
                       bool validate, std::vector<Record>* out) {
  if (node.reduce_kind != ReduceKind::kNone &&
      FlatReduceTypedPartition(rows, node.left_key, node.reduce_kind,
                               node.reduce_value_col, out)) {
    return Status::OK();
  }
  return FlatReducePartition(rows, node.left_key, node.combine_fn, validate,
                             node.name, out);
}

/// GroupReduceByKey of one partition over a FlatKeyIndex: chains keep
/// arrival order, and groups are emitted sorted on their key.
void GroupReducePartition(const PlanNode& node,
                          const std::vector<Record>& rows,
                          std::vector<Record>* out) {
  FlatKeyIndex index;
  index.Build(rows, node.left_key);
  std::vector<int32_t> heads = index.heads();
  std::sort(heads.begin(), heads.end(), [&](int32_t a, int32_t b) {
    return KeyLess(rows[a], rows[b], node.left_key);
  });
  out->reserve(heads.size());
  std::vector<Record> group;
  for (int32_t head : heads) {
    group.clear();
    for (int32_t r = head; r >= 0; r = index.Next(r)) group.push_back(rows[r]);
    out->push_back(
        node.group_reduce_fn(ExtractKey(rows[head], node.left_key), group));
  }
}

/// Join of one partition: index the build (left) rows, then probe them.
void JoinPartition(const PlanNode& node, const std::vector<Record>& build,
                   const std::vector<Record>& probes,
                   runtime::MetricsSink* metrics, std::vector<Record>* out) {
  FlatKeyIndex index;
  index.Build(build, node.left_key);
  ObserveProbeChains(metrics, index);
  JoinProbe(index, build, probes, node.right_key, node.join_fn, out);
}

/// Cogroup sweep of one partition: the union of both key sets in
/// RecordLess order, each key's groups (possibly empty) handed to the UDF.
void CoGroupSweep(const PlanNode& node, const CachedGroups& lgroups,
                  const CachedGroups& rgroups, std::vector<Record>* out) {
  std::vector<const Record*> keys;
  keys.reserve(lgroups.size() + rgroups.size());
  for (const auto& [k, g] : lgroups) keys.push_back(&k);
  for (const auto& [k, g] : rgroups) {
    if (lgroups.find(k) == lgroups.end()) keys.push_back(&k);
  }
  std::sort(keys.begin(), keys.end(), [](const Record* a, const Record* b) {
    return RecordLess(*a, *b);
  });
  for (const Record* key : keys) {
    auto lit = lgroups.find(*key);
    auto rit = rgroups.find(*key);
    node.cogroup_fn(*key, lit != lgroups.end() ? lit->second : kEmptyGroup,
                    rit != rgroups.end() ? rit->second : kEmptyGroup, out);
  }
}

/// Distinct of one partition: a flat slot map keyed on the whole record,
/// whose emitted records double as the dedup table (first occurrence
/// wins).
void DistinctPartition(const std::vector<Record>& rows,
                       std::vector<Record>* out) {
  FlatSlotMap slots(rows.size());
  for (const Record& r : rows) {
    bool inserted = false;
    slots.FindOrInsert(
        HashRecord(r), [&](int32_t s) { return (*out)[s] == r; }, &inserted);
    if (inserted) out->push_back(r);
  }
}

/// Cogroup of one partition whose sides are both freshly shuffled.
void CoGroupPartition(const PlanNode& node, const std::vector<Record>& left,
                      const std::vector<Record>& right,
                      std::vector<Record>* out) {
  CoGroupSweep(node, GroupByKey(left, node.left_key),
               GroupByKey(right, node.right_key), out);
}

/// The single-input narrow operators (Map, FlatMap, Filter, Project) of
/// one partition. `schema` is the batch schema of a batched Map/FlatMap,
/// null otherwise.
Status NarrowPartition(const PlanNode& node, const BatchSchema* schema,
                       const std::vector<Record>& rows,
                       std::vector<Record>* out) {
  switch (node.kind) {
    case OpKind::kMap:
    case OpKind::kFlatMap:
      return MapPartition(node, schema, rows, out);
    case OpKind::kFilter:
      FilterPartition(node, rows, out);
      return Status::OK();
    case OpKind::kProject:
      return ProjectPartition(node, rows, out);
    default:
      return Status::Internal("not a narrow operator: " + node.name);
  }
}

/// Resolves the batch schema of `in` for plan node `node_id`: served from
/// the ExecCache's per-node schema cache when possible (the schema of a
/// node's input is stable within a job — attaching a batch impl declares as
/// much), else one dataset-wide inference pass. The result is stored back
/// only when inferred from actual rows — a drained workset (all partitions
/// empty) must not pin the empty schema for later supersteps. False means
/// heterogeneous rows; the caller runs the record fn.
bool ResolveBatchSchema(ExecCache* cache, int node_id,
                        const PartitionedDataset& in, BatchSchema* schema) {
  if (cache != nullptr) {
    const BatchSchema* cached = cache->FindSchema(node_id);
    if (cached != nullptr) {
      *schema = *cached;
      return true;
    }
  }
  bool from_rows = false;
  schema->clear();
  for (int p = 0; p < in.num_partitions(); ++p) {
    const std::vector<Record>& part = in.partition(p);
    if (part.empty()) continue;
    BatchSchema part_schema;
    if (!InferBatchSchema(part, &part_schema)) return false;
    if (!from_rows) {
      *schema = std::move(part_schema);
      from_rows = true;
    } else if (part_schema != *schema) {
      return false;
    }
  }
  if (from_rows && cache != nullptr) cache->StoreSchema(node_id, *schema);
  return true;
}

uint64_t MaxPartitionSize(const PartitionedDataset& ds) {
  uint64_t m = 0;
  for (int p = 0; p < ds.num_partitions(); ++p) {
    m = std::max(m, static_cast<uint64_t>(ds.partition(p).size()));
  }
  return m;
}

/// Reusable "prefix<i>" formatter for per-partition span arg keys: one
/// buffer per operator instead of two temporary strings per partition.
class PartitionKeyBuffer {
 public:
  explicit PartitionKeyBuffer(const char* prefix)
      : buf_(prefix), prefix_len_(buf_.size()) {}

  const std::string& Key(int p) {
    buf_.resize(prefix_len_);
    char digits[16];
    int len = std::snprintf(digits, sizeof(digits), "%d", p);
    buf_.append(digits, static_cast<size_t>(len));
    return buf_;
  }

 private:
  std::string buf_;
  size_t prefix_len_;
};

}  // namespace

void ExecStats::MergeFrom(const ExecStats& other) {
  records_processed += other.records_processed;
  messages_shuffled += other.messages_shuffled;
  cache_hits += other.cache_hits;
  records_not_reshuffled += other.records_not_reshuffled;
  batch_ops += other.batch_ops;
  row_fallback_ops += other.row_fallback_ops;
  messages_replayed += other.messages_replayed;
  for (const auto& [name, count] : other.node_output_counts) {
    node_output_counts[name] += count;
  }
}

Executor::Executor(ExecOptions options) : options_(options) {
  FLINKLESS_CHECK(options_.num_partitions > 0,
                  "executor needs at least one partition");
  // Process-wide by design: index builds and serde also run outside any
  // executor (cache unspill, message-log blocks), and every tier is
  // bit-identical, so the level is a pure wall-clock knob (DESIGN.md §15).
  simd::ApplySimdLevel(options_.simd_level);
  per_partition_args_ =
      options_.trace_detail == TraceDetail::kPerPartition ||
      (options_.trace_detail == TraceDetail::kAuto &&
       options_.num_partitions <= 8);
  int threads = runtime::ThreadPool::ResolveThreadCount(options_.num_threads);
  if (threads > 1) {
    pool_ = std::make_unique<runtime::ThreadPool>(threads);
  }
}

void Executor::ForEachPartition(int count,
                                const std::function<void(int)>& fn) const {
  CountPoolWork(count);
  runtime::ParallelFor(pool_.get(), count, fn);
}

void Executor::ForEachPartition(const runtime::TraceSpan& parent,
                                const PartitionedDataset* in, int count,
                                const std::function<void(int)>& fn) const {
  CountPoolWork(count);
  if (options_.metrics != nullptr && in != nullptr) {
    // Per-partition operator input records, counted on the orchestration
    // thread so the family exists (with identical values) at any thread
    // count.
    for (int p = 0; p < count; ++p) {
      options_.metrics->Count(runtime::metric::kExecRecords, p,
                              in->partition(p).size());
    }
  }
  std::function<int64_t(int)> records_of;
  if (parent.active() && in != nullptr) {
    records_of = [in](int p) {
      return static_cast<int64_t>(in->partition(p).size());
    };
  }
  runtime::TracedParallelFor(pool_.get(), parent, count, fn, records_of);
}

void Executor::CountPoolWork(int tasks) const {
  if (options_.metrics == nullptr || tasks <= 0) return;
  options_.metrics->Count(runtime::metric::kPoolParallelSections, -1);
  options_.metrics->Count(runtime::metric::kPoolTasks, -1,
                          static_cast<uint64_t>(tasks));
}

void Executor::ObserveBatchRows(const PartitionedDataset& ds) const {
  if (options_.metrics == nullptr) return;
  for (int p = 0; p < ds.num_partitions(); ++p) {
    options_.metrics->Observe(runtime::metric::kHistBatchRows,
                              static_cast<int64_t>(ds.partition(p).size()));
  }
}

void Executor::ChargeCompute(
    const std::vector<uint64_t>& per_partition) const {
  if (options_.clock == nullptr || options_.costs == nullptr) return;
  uint64_t critical = 0;
  for (uint64_t records : per_partition) critical = std::max(critical, records);
  options_.clock->Add(runtime::Charge::kCompute,
                      options_.costs->cpu_per_record_ns *
                          static_cast<int64_t>(critical));
}

void Executor::ChargeCompute(const PartitionedDataset& a,
                             const PartitionedDataset* b) const {
  if (options_.clock == nullptr || options_.costs == nullptr) return;
  uint64_t critical = 0;
  for (int p = 0; p < a.num_partitions(); ++p) {
    uint64_t records = a.partition(p).size();
    if (b != nullptr && p < b->num_partitions()) {
      records += b->partition(p).size();
    }
    critical = std::max(critical, records);
  }
  options_.clock->Add(runtime::Charge::kCompute,
                      options_.costs->cpu_per_record_ns *
                          static_cast<int64_t>(critical));
}

void Executor::ChargeNetwork(uint64_t messages) const {
  if (options_.clock == nullptr || options_.costs == nullptr) return;
  options_.clock->Add(runtime::Charge::kNetwork,
                      options_.costs->network_per_record_ns *
                          static_cast<int64_t>(messages));
}

template <typename Input>
PartitionedDataset Executor::ShuffleImpl(Input&& input, const KeyColumns& key,
                                         ExecStats* stats) const {
  constexpr bool kMove = !std::is_lvalue_reference_v<Input>;
  const int n = options_.num_partitions;
  const int sources = input.num_partitions();

  // Source sizes, captured up front: compute is charged on them, scatter
  // spans report them, and the move path releases source partitions as
  // soon as they are drained.
  std::vector<uint64_t> in_sizes(sources);
  for (int p = 0; p < sources; ++p) in_sizes[p] = input.partition(p).size();

  // Blocked scatter/gather pipeline: sources are scattered in blocks and
  // each block's outboxes are drained into the output (in source order)
  // before the next block scatters, so peak outbox memory is one block
  // (~half the input) instead of the whole input. Within a target
  // partition records still arrive in global source-partition order, so
  // the result stays byte-identical to the old all-at-once two-phase
  // shuffle — and to a serial single-pass one.
  const int block = sources <= 1 ? 1 : (sources + 1) / 2;

  PartitionedDataset out(n);
  std::vector<uint64_t> moved(sources, 0);
  uint64_t outbox_peak = 0;

  runtime::TraceSpan scatter_span(options_.tracer,
                                  runtime::SpanKind::kShuffleScatter,
                                  "scatter");
  {
    // The gather span nests inside the scatter span (the phases now
    // interleave per block); it must close first.
    runtime::TraceSpan gather_span(options_.tracer,
                                   runtime::SpanKind::kShuffleGather,
                                   "gather");
    for (int base = 0; base < sources; base += block) {
      const int count = std::min(block, sources - base);
      std::vector<std::vector<std::vector<Record>>> outbox(count);

      std::function<int64_t(int)> records_of;
      if (scatter_span.active()) {
        records_of = [&](int i) {
          return static_cast<int64_t>(in_sizes[base + i]);
        };
      }
      CountPoolWork(count);
      runtime::TracedParallelFor(
          pool_.get(), scatter_span, count,
          [&](int i) {
            const int p = base + i;
            auto& boxes = outbox[i];
            boxes.resize(n);
            // Batch scatter (§12): resolve the whole key column to target
            // partitions in one pass, size every outbox exactly, then move
            // — no per-record push_back growth. Record order within each
            // outbox is source order, so the result is byte-identical to a
            // serial single-pass shuffle.
            auto& src = input.partition(p);
            std::vector<int32_t> target(src.size());
            std::vector<size_t> counts(n, 0);
            // Single-int64-key shuffles (every hot channel) resolve their
            // targets from one kernel hash stripe. PartitionOf is HashKey % n
            // and the kernel computes exactly that hash for this shape, so
            // the targets are identical.
            std::vector<int64_t> key64;
            if (ExtractKey64(src, key, &key64)) {
              std::vector<uint64_t> hashes(src.size());
              simd::ActiveKernels().hash_key64(key64.data(), src.size(),
                                               hashes.data());
              for (size_t r = 0; r < src.size(); ++r) {
                const int t =
                    static_cast<int>(hashes[r] % static_cast<uint64_t>(n));
                target[r] = t;
                ++counts[t];
                if (t != p) ++moved[p];
              }
            } else {
              for (size_t r = 0; r < src.size(); ++r) {
                const int t = PartitionedDataset::PartitionOf(src[r], key, n);
                target[r] = t;
                ++counts[t];
                if (t != p) ++moved[p];
              }
            }
            for (int t = 0; t < n; ++t) boxes[t].reserve(counts[t]);
            if constexpr (kMove) {
              for (size_t r = 0; r < src.size(); ++r) {
                boxes[target[r]].push_back(std::move(src[r]));
              }
              input.ReleasePartition(p);
            } else {
              for (size_t r = 0; r < src.size(); ++r) {
                boxes[target[r]].push_back(src[r]);
              }
            }
          },
          records_of, /*partition_offset=*/base);

      uint64_t block_records = 0;
      for (int i = 0; i < count; ++i) block_records += in_sizes[base + i];
      outbox_peak = std::max(outbox_peak, block_records);

      // Drain this block's outboxes, freeing them before the next block
      // scatters (the outbox vector's scope ends with the loop body).
      ForEachPartition(gather_span, nullptr, n, [&](int t) {
        std::vector<Record>& dst = out.partition(t);
        size_t add = 0;
        for (int i = 0; i < count; ++i) add += outbox[i][t].size();
        dst.reserve(dst.size() + add);
        for (int i = 0; i < count; ++i) {
          for (Record& r : outbox[i][t]) dst.push_back(std::move(r));
        }
      });
    }
    if (gather_span.active()) {
      gather_span.AddArg("records", static_cast<int64_t>(out.NumRecords()));
      // Peak records simultaneously buffered in outboxes — a pure function
      // of the input sizes and the (deterministic) block schedule.
      gather_span.AddArg("outbox_peak_records",
                         static_cast<int64_t>(outbox_peak));
    }
  }

  uint64_t total_moved = 0;
  for (uint64_t m : moved) total_moved += m;
  if (options_.metrics != nullptr) {
    // Per-source-partition shuffle fan-out: how many of partition p's
    // records left it for another partition. The counter makes skewed
    // senders visible; the histogram gives the distribution across all
    // shuffles of the run.
    for (int p = 0; p < sources; ++p) {
      options_.metrics->Count(runtime::metric::kShuffleFanout, p, moved[p]);
      options_.metrics->Observe(runtime::metric::kHistShuffleFanout,
                                static_cast<int64_t>(moved[p]));
    }
  }
  if (scatter_span.active()) {
    scatter_span.AddArg("messages", static_cast<int64_t>(total_moved));
    if (per_partition_args_) {
      PartitionKeyBuffer moved_key("moved_p");
      for (int p = 0; p < sources; ++p) {
        scatter_span.AddArg(moved_key.Key(p), static_cast<int64_t>(moved[p]));
      }
    }
  }
  scatter_span.Close();

  ChargeCompute(in_sizes);
  ChargeNetwork(total_moved);
  if (stats != nullptr) stats->messages_shuffled += total_moved;
  return out;
}

PartitionedDataset Executor::Shuffle(const PartitionedDataset& input,
                                     const KeyColumns& key,
                                     ExecStats* stats) const {
  return ShuffleImpl(input, key, stats);
}

PartitionedDataset Executor::Shuffle(PartitionedDataset&& input,
                                     const KeyColumns& key,
                                     ExecStats* stats) const {
  return ShuffleImpl(std::move(input), key, stats);
}

Result<std::map<std::string, PartitionedDataset>> Executor::Execute(
    const Plan& plan, const Bindings& bindings, ExecStats* stats) const {
  FLINKLESS_RETURN_NOT_OK(plan.Validate());
  const int n = options_.num_partitions;

  // Loop-invariant analysis: with a cache attached, a node whose value
  // cannot change between supersteps is served from / stored into it.
  ExecCache* cache = options_.cache;
  std::vector<bool> invariant;
  if (cache != nullptr) {
    cache->EnsurePartitionCount(n);
    invariant = plan.InvariantNodes(cache->volatile_bindings());
  }

  // Outbound message log (DESIGN.md §14): every shuffle of a loop-variant
  // channel is appended post-gather. Variance is computed against the
  // log's own volatile set so logging works with or without a cache, and
  // the logged channel set is identical either way (a static build side
  // served from the cache is invariant, hence never logged).
  runtime::MessageLog* msglog = options_.message_log;
  std::vector<bool> log_variant;
  if (msglog != nullptr) {
    std::vector<bool> log_invariant =
        plan.InvariantNodes(msglog->volatile_bindings());
    log_variant.resize(log_invariant.size());
    for (size_t i = 0; i < log_invariant.size(); ++i) {
      log_variant[i] = !log_invariant[i];
    }
  }
  // Appends a just-shuffled channel of `node` (the shuffled input is plan
  // node `input_node`, arriving on `port` ∈ {in, l, r}).
  auto log_shuffled = [&](const PlanNode& node, NodeId input_node,
                          const char* port,
                          const PartitionedDataset& shuffled) -> Status {
    if (msglog == nullptr || !log_variant[input_node]) return Status::OK();
    return msglog->Append(MsglogChannel(node.id, port), shuffled,
                          options_.tracer);
  };

  ExecStats local_stats;

  // Node results are views over a borrowed source binding, a cache entry,
  // or an executor-owned dataset — sources and cache hits cost no copies
  // (the executor used to deep-copy every source binding per Execute).
  // Reserved up front: views point into their own slots.
  struct Slot {
    PartitionedDataset owned;
    std::shared_ptr<const PartitionedDataset> keepalive;
    const PartitionedDataset* view = nullptr;
    bool is_owned = false;
  };
  std::vector<Slot> slots;
  slots.reserve(plan.num_nodes());
  auto push_owned = [&](PartitionedDataset ds) {
    Slot& s = slots.emplace_back();
    s.owned = std::move(ds);
    s.view = &s.owned;
    s.is_owned = true;
  };
  auto push_view = [&](const PartitionedDataset* ds) {
    slots.emplace_back().view = ds;
  };
  auto push_cached = [&](std::shared_ptr<const PartitionedDataset> ds) {
    Slot& s = slots.emplace_back();
    s.keepalive = std::move(ds);
    s.view = s.keepalive.get();
  };
  auto input_of = [&](int idx) -> const PartitionedDataset& {
    FLINKLESS_CHECK(slots[idx].view != nullptr,
                    "execute read an input after its last reader");
    return *slots[idx].view;
  };

  // Intermediate ownership (DESIGN.md §12): the last node that reads each
  // node's output. Plan outputs are pinned, read by the caller after every
  // node. An executor-owned slot is released as soon as its last reader
  // has run, and that reader may move from it; borrowed sources and cache
  // entries are never owned, so they never move.
  const int num_nodes = static_cast<int>(plan.num_nodes());
  std::vector<int> last_reader(num_nodes, -1);
  for (const PlanNode& node : plan.nodes()) {
    for (int idx : node.inputs) last_reader[idx] = node.id;
  }
  for (const auto& [name, id] : plan.outputs()) last_reader[id] = num_nodes;
  // The input on `port` when this is the last read of an owned slot, else
  // null. Kernels read their ports in order, so a slot bound to two ports
  // is taken only by the later one.
  auto take = [&](const PlanNode& node, size_t port) -> PartitionedDataset* {
    const int idx = node.inputs[port];
    if (!slots[idx].is_owned || last_reader[idx] != node.id) return nullptr;
    for (size_t q = port + 1; q < node.inputs.size(); ++q) {
      if (node.inputs[q] == idx) return nullptr;
    }
    return &slots[idx].owned;
  };
  // Shuffles the input on `port`, by move when this is its last read.
  auto shuffle_input = [&](const PlanNode& node, size_t port,
                           const KeyColumns& key) {
    PartitionedDataset* dead = take(node, port);
    return dead != nullptr
               ? Shuffle(std::move(*dead), key, &local_stats)
               : Shuffle(input_of(node.inputs[port]), key, &local_stats);
  };

  auto count_output = [&](const PlanNode& node,
                          const PartitionedDataset& ds) {
    local_stats.node_output_counts[node.name] += ds.NumRecords();
  };

  // Per-partition failure slots for operators that can fail mid-record;
  // checked in partition order after the parallel section so the reported
  // error is the same one serial execution would hit first.
  std::vector<Status> part_status(n);
  auto reset_status = [&] {
    for (Status& s : part_status) s = Status::OK();
  };
  auto first_error = [&]() -> Status {
    for (const Status& s : part_status) {
      if (!s.ok()) return s;
    }
    return Status::OK();
  };

  for (const PlanNode& node : plan.nodes()) {
    // One span per operator; per-partition child spans are recorded by the
    // traced ForEachPartition overload below. Input/output record counts
    // land as args when the span closes at the end of this loop body.
    uint64_t span_records_in = 0;
    if (options_.tracer != nullptr) {
      for (int idx : node.inputs) {
        span_records_in += slots[idx].view->NumRecords();
      }
    }
    runtime::TraceSpan op_span(options_.tracer, runtime::SpanKind::kOperator,
                               node.name);

    // Fully loop-invariant node: its output is the same every superstep,
    // so the first execution materializes it into the cache and every
    // later one serves the cached dataset without running (or charging)
    // anything. Sources are exempt — they are already zero-copy views.
    bool from_cache = false;
    bool store_output = false;
    if (cache != nullptr && node.kind != OpKind::kSource &&
        invariant[node.id]) {
      bool reloaded = false;
      FLINKLESS_ASSIGN_OR_RETURN(
          ExecCache::Entry* e,
          cache->FindResident(node.id, ExecCache::Role::kOutput,
                              options_.tracer, &reloaded));
      if (e != nullptr) {
        cache->CountHit();
        ++local_stats.cache_hits;
        switch (node.kind) {
          case OpKind::kReduceByKey:
          case OpKind::kGroupReduceByKey:
          case OpKind::kJoin:
          case OpKind::kCoGroup:
          case OpKind::kDistinct:
            // These would have shuffled their inputs.
            for (int idx : node.inputs) {
              local_stats.records_not_reshuffled +=
                  slots[idx].view->NumRecords();
            }
            break;
          default:
            break;
        }
        push_cached(e->data);
        if (op_span.active()) {
          op_span.AddArg("cache_hit", 1);
          op_span.AddArg("reloaded", reloaded ? 1 : 0);
        }
        from_cache = true;
      } else {
        store_output = true;
      }
    }

    if (!from_cache) {
      switch (node.kind) {
        case OpKind::kSource: {
          auto it = bindings.find(node.source_name);
          if (it == bindings.end() || it->second == nullptr) {
            return Status::NotFound("no binding for source '" +
                                    node.source_name + "'");
          }
          if (it->second->num_partitions() != n) {
            return Status::InvalidArgument(
                "binding '" + node.source_name + "' has " +
                std::to_string(it->second->num_partitions()) +
                " partitions, executor expects " + std::to_string(n));
          }
          push_view(it->second);
          break;
        }

        case OpKind::kMap:
        case OpKind::kFlatMap:
        case OpKind::kFilter:
        case OpKind::kProject: {
          const PartitionedDataset& in = input_of(node.inputs[0]);
          // Batched UDF boundary (DESIGN.md §15): a Map/FlatMap with a
          // batch impl over a schema-homogeneous input crosses it once per
          // partition; otherwise the record fn runs per record.
          BatchSchema schema;
          const bool has_batch = node.batch_map_fn != nullptr;
          const bool batched =
              has_batch && ResolveBatchSchema(cache, node.id, in, &schema);
          if (has_batch) {
            batched ? ++local_stats.batch_ops : ++local_stats.row_fallback_ops;
          }
          if (batched) ObserveBatchRows(in);
          PartitionedDataset out(n);
          reset_status();
          ForEachPartition(op_span, &in, n, [&](int p) {
            part_status[p] =
                NarrowPartition(node, batched ? &schema : nullptr,
                                in.partition(p), &out.partition(p));
          });
          FLINKLESS_RETURN_NOT_OK(first_error());
          local_stats.records_processed += in.NumRecords();
          ChargeCompute(in);
          push_owned(std::move(out));
          break;
        }

        case OpKind::kReduceByKey: {
          ++local_stats.batch_ops;
          const PartitionedDataset* in = &input_of(node.inputs[0]);
          PartitionedDataset combined;
          if (node.pre_combine) {
            // Local pre-aggregation before the shuffle: fewer messages.
            combined = PartitionedDataset(in->num_partitions());
            ObserveBatchRows(*in);
            reset_status();
            ForEachPartition(op_span, in, in->num_partitions(), [&](int p) {
              part_status[p] =
                  ReducePartition(node, in->partition(p), /*validate=*/false,
                                  &combined.partition(p));
            });
            FLINKLESS_RETURN_NOT_OK(first_error());
            local_stats.records_processed += in->NumRecords();
            ChargeCompute(*in);
            in = &combined;
          }
          PartitionedDataset shuffled =
              in == &combined
                  ? Shuffle(std::move(combined), node.left_key, &local_stats)
                  : shuffle_input(node, 0, node.left_key);
          FLINKLESS_RETURN_NOT_OK(
              log_shuffled(node, node.inputs[0], "in", shuffled));
          ObserveBatchRows(shuffled);
          PartitionedDataset out(n);
          reset_status();
          ForEachPartition(op_span, &shuffled, n, [&](int p) {
            part_status[p] =
                ReducePartition(node, shuffled.partition(p), /*validate=*/true,
                                &out.partition(p));
          });
          FLINKLESS_RETURN_NOT_OK(first_error());
          local_stats.records_processed += shuffled.NumRecords();
          ChargeCompute(shuffled);
          push_owned(std::move(out));
          break;
        }

        case OpKind::kGroupReduceByKey: {
          ++local_stats.batch_ops;
          PartitionedDataset shuffled = shuffle_input(node, 0, node.left_key);
          FLINKLESS_RETURN_NOT_OK(
              log_shuffled(node, node.inputs[0], "in", shuffled));
          ObserveBatchRows(shuffled);
          PartitionedDataset out(n);
          ForEachPartition(op_span, &shuffled, n, [&](int p) {
            GroupReducePartition(node, shuffled.partition(p),
                                 &out.partition(p));
          });
          local_stats.records_processed += shuffled.NumRecords();
          ChargeCompute(shuffled);
          push_owned(std::move(out));
          break;
        }

        case OpKind::kJoin: {
          ++local_stats.batch_ops;
          const bool build_static = cache != nullptr && !invariant[node.id] &&
                                    invariant[node.inputs[0]];
          const bool probe_static = cache != nullptr && !invariant[node.id] &&
                                    invariant[node.inputs[1]];
          if (build_static) {
            // Loop-invariant build side: shuffle + index it once; later
            // supersteps probe the prebuilt per-partition flat index, whose
            // rows are the cached records themselves.
            bool reloaded = false;
            FLINKLESS_ASSIGN_OR_RETURN(
                ExecCache::Entry* e,
                cache->FindResident(node.id, ExecCache::Role::kBuild,
                                    options_.tracer, &reloaded));
            const bool hit = e != nullptr;
            if (!hit) {
              PartitionedDataset shuffled = Shuffle(
                  input_of(node.inputs[0]), node.left_key, &local_stats);
              ExecCache::Entry& entry =
                  cache->Emplace(node.id, ExecCache::Role::kBuild);
              auto data =
                  std::make_shared<PartitionedDataset>(std::move(shuffled));
              entry.data = data;
              entry.index_key = node.left_key;
              entry.flat_index.resize(n);
              ForEachPartition(n, [&](int p) {
                entry.flat_index[p].Build(data->partition(p), node.left_key);
              });
              ObserveBatchRows(*data);
              for (int p = 0; p < n; ++p) {
                ObserveProbeChains(options_.metrics, entry.flat_index[p]);
              }
              e = cache->Find(node.id, ExecCache::Role::kBuild);
              FLINKLESS_RETURN_NOT_OK(cache->OnEntryFilled(
                  node.id, ExecCache::Role::kBuild, options_.tracer));
              if (op_span.active()) op_span.AddArg("cache_build", 1);
            } else {
              cache->CountHit();
              ++local_stats.cache_hits;
              local_stats.records_not_reshuffled += e->data->NumRecords();
              if (op_span.active()) {
                op_span.AddArg("cache_hit", 1);
                op_span.AddArg("reloaded", reloaded ? 1 : 0);
              }
            }
            PartitionedDataset right =
                shuffle_input(node, 1, node.right_key);
            FLINKLESS_RETURN_NOT_OK(
                log_shuffled(node, node.inputs[1], "r", right));
            PartitionedDataset out(n);
            ForEachPartition(op_span, &right, n, [&](int p) {
              JoinProbe(e->flat_index[p], e->data->partition(p),
                        right.partition(p), node.right_key, node.join_fn,
                        &out.partition(p));
            });
            if (hit) {
              // Only the probe side is processed this superstep; the
              // cached side costs nothing (that is the optimization).
              local_stats.records_processed += right.NumRecords();
              ChargeCompute(right);
            } else {
              local_stats.records_processed +=
                  e->data->NumRecords() + right.NumRecords();
              ChargeCompute(*e->data, &right);
            }
            push_owned(std::move(out));
            break;
          }
          if (probe_static) {
            // Loop-invariant probe side: its shuffle is cached; the hash
            // table still rebuilds from the changing build side.
            bool reloaded = false;
            FLINKLESS_ASSIGN_OR_RETURN(
                ExecCache::Entry* e,
                cache->FindResident(node.id, ExecCache::Role::kProbe,
                                    options_.tracer, &reloaded));
            const bool hit = e != nullptr;
            if (!hit) {
              PartitionedDataset shuffled = Shuffle(
                  input_of(node.inputs[1]), node.right_key, &local_stats);
              ExecCache::Entry& entry =
                  cache->Emplace(node.id, ExecCache::Role::kProbe);
              entry.data =
                  std::make_shared<PartitionedDataset>(std::move(shuffled));
              e = cache->Find(node.id, ExecCache::Role::kProbe);
              FLINKLESS_RETURN_NOT_OK(cache->OnEntryFilled(
                  node.id, ExecCache::Role::kProbe, options_.tracer));
              if (op_span.active()) op_span.AddArg("cache_build", 1);
            } else {
              cache->CountHit();
              ++local_stats.cache_hits;
              local_stats.records_not_reshuffled += e->data->NumRecords();
              if (op_span.active()) {
                op_span.AddArg("cache_hit", 1);
                op_span.AddArg("reloaded", reloaded ? 1 : 0);
              }
            }
            const PartitionedDataset& right = *e->data;
            PartitionedDataset left = shuffle_input(node, 0, node.left_key);
            FLINKLESS_RETURN_NOT_OK(
                log_shuffled(node, node.inputs[0], "l", left));
            ObserveBatchRows(left);
            PartitionedDataset out(n);
            ForEachPartition(op_span, &left, n, [&](int p) {
              JoinPartition(node, left.partition(p), right.partition(p),
                            options_.metrics, &out.partition(p));
            });
            if (hit) {
              local_stats.records_processed += left.NumRecords();
              ChargeCompute(left);
            } else {
              local_stats.records_processed +=
                  left.NumRecords() + right.NumRecords();
              ChargeCompute(left, &right);
            }
            push_owned(std::move(out));
            break;
          }
          PartitionedDataset left = shuffle_input(node, 0, node.left_key);
          PartitionedDataset right = shuffle_input(node, 1, node.right_key);
          FLINKLESS_RETURN_NOT_OK(
              log_shuffled(node, node.inputs[0], "l", left));
          FLINKLESS_RETURN_NOT_OK(
              log_shuffled(node, node.inputs[1], "r", right));
          ObserveBatchRows(left);
          PartitionedDataset out(n);
          ForEachPartition(op_span, &left, n, [&](int p) {
            JoinPartition(node, left.partition(p), right.partition(p),
                          options_.metrics, &out.partition(p));
          });
          local_stats.records_processed +=
              left.NumRecords() + right.NumRecords();
          ChargeCompute(left, &right);
          push_owned(std::move(out));
          break;
        }

        case OpKind::kCoGroup: {
          // Cogroup has no batch implementation: its UDF sweeps fully
          // materialized groups on both sides at once, so flattening one
          // side into an index buys nothing (DESIGN.md §12 fallback rule).
          ++local_stats.row_fallback_ops;
          const bool left_static = cache != nullptr && !invariant[node.id] &&
                                   invariant[node.inputs[0]];
          const bool right_static = cache != nullptr && !invariant[node.id] &&
                                    invariant[node.inputs[1]];
          if (left_static || right_static) {
            // One loop-invariant side: shuffle + group it once, reuse the
            // materialized groups every later superstep.
            const int static_in =
                left_static ? node.inputs[0] : node.inputs[1];
            const KeyColumns& static_key =
                left_static ? node.left_key : node.right_key;
            const ExecCache::Role role = left_static
                                             ? ExecCache::Role::kBuild
                                             : ExecCache::Role::kProbe;
            bool reloaded = false;
            FLINKLESS_ASSIGN_OR_RETURN(
                ExecCache::Entry* e,
                cache->FindResident(node.id, role, options_.tracer,
                                    &reloaded));
            const bool hit = e != nullptr;
            if (!hit) {
              PartitionedDataset shuffled =
                  Shuffle(input_of(static_in), static_key, &local_stats);
              ExecCache::Entry& entry = cache->Emplace(node.id, role);
              auto data =
                  std::make_shared<PartitionedDataset>(std::move(shuffled));
              entry.data = data;
              entry.index_key = static_key;
              entry.groups.resize(n);
              ForEachPartition(n, [&](int p) {
                entry.groups[p] = GroupByKey(data->partition(p), static_key);
              });
              e = cache->Find(node.id, role);
              FLINKLESS_RETURN_NOT_OK(
                  cache->OnEntryFilled(node.id, role, options_.tracer));
              if (op_span.active()) op_span.AddArg("cache_build", 1);
            } else {
              cache->CountHit();
              ++local_stats.cache_hits;
              local_stats.records_not_reshuffled += e->data->NumRecords();
              if (op_span.active()) {
                op_span.AddArg("cache_hit", 1);
                op_span.AddArg("reloaded", reloaded ? 1 : 0);
              }
            }
            const size_t vol_port = left_static ? 1 : 0;
            const KeyColumns& vol_key =
                left_static ? node.right_key : node.left_key;
            PartitionedDataset vol = shuffle_input(node, vol_port, vol_key);
            FLINKLESS_RETURN_NOT_OK(log_shuffled(
                node, node.inputs[vol_port], left_static ? "r" : "l", vol));
            PartitionedDataset out(n);
            ForEachPartition(op_span, &vol, n, [&](int p) {
              CachedGroups vgroups = GroupByKey(vol.partition(p), vol_key);
              CoGroupSweep(node, left_static ? e->groups[p] : vgroups,
                           left_static ? vgroups : e->groups[p],
                           &out.partition(p));
            });
            if (hit) {
              local_stats.records_processed += vol.NumRecords();
              ChargeCompute(vol);
            } else {
              local_stats.records_processed +=
                  e->data->NumRecords() + vol.NumRecords();
              ChargeCompute(*e->data, &vol);
            }
            push_owned(std::move(out));
            break;
          }
          PartitionedDataset left = shuffle_input(node, 0, node.left_key);
          PartitionedDataset right = shuffle_input(node, 1, node.right_key);
          FLINKLESS_RETURN_NOT_OK(
              log_shuffled(node, node.inputs[0], "l", left));
          FLINKLESS_RETURN_NOT_OK(
              log_shuffled(node, node.inputs[1], "r", right));
          PartitionedDataset out(n);
          ForEachPartition(op_span, &left, n, [&](int p) {
            CoGroupPartition(node, left.partition(p), right.partition(p),
                             &out.partition(p));
          });
          local_stats.records_processed +=
              left.NumRecords() + right.NumRecords();
          ChargeCompute(left, &right);
          push_owned(std::move(out));
          break;
        }

        case OpKind::kCross: {
          const PartitionedDataset& left = input_of(node.inputs[0]);
          const PartitionedDataset& right = input_of(node.inputs[1]);
          // Broadcast the right side: every record is replicated to every
          // partition but its own (counted as messages).
          std::vector<Record> right_all = right.Collect();
          uint64_t broadcast_messages =
              right.NumRecords() * static_cast<uint64_t>(n > 0 ? n - 1 : 0);
          local_stats.messages_shuffled += broadcast_messages;
          ChargeNetwork(broadcast_messages);
          PartitionedDataset out(n);
          ForEachPartition(op_span, &left, n, [&](int p) {
            CrossPartition(node, left.partition(p), right_all,
                           &out.partition(p));
          });
          local_stats.records_processed +=
              left.NumRecords() + right.NumRecords();
          // Partition p pays for its own left records against the whole
          // broadcast right side; the critical path is the largest
          // partition.
          ChargeCompute(std::vector<uint64_t>{MaxPartitionSize(left) *
                                              right_all.size()});
          push_owned(std::move(out));
          break;
        }

        case OpKind::kUnion: {
          const PartitionedDataset& a = input_of(node.inputs[0]);
          const PartitionedDataset& b = input_of(node.inputs[1]);
          PartitionedDataset* dead_a = take(node, 0);
          PartitionedDataset* dead_b = take(node, 1);
          // Counted before the tasks move records out of dead inputs;
          // charged after them, like every operator.
          local_stats.records_processed += a.NumRecords() + b.NumRecords();
          std::vector<uint64_t> work(n);
          for (int p = 0; p < n; ++p) {
            work[p] = a.partition(p).size() + b.partition(p).size();
          }
          PartitionedDataset out(n);
          ForEachPartition(op_span, &a, n, [&](int p) {
            UnionPartition(
                a.partition(p), b.partition(p), &out.partition(p),
                dead_a != nullptr ? &dead_a->partition(p) : nullptr,
                dead_b != nullptr ? &dead_b->partition(p) : nullptr);
          });
          ChargeCompute(work);
          push_owned(std::move(out));
          break;
        }

        case OpKind::kDistinct: {
          ++local_stats.batch_ops;
          PartitionedDataset shuffled = shuffle_input(node, 0, node.left_key);
          FLINKLESS_RETURN_NOT_OK(
              log_shuffled(node, node.inputs[0], "in", shuffled));
          ObserveBatchRows(shuffled);
          PartitionedDataset out(n);
          ForEachPartition(op_span, &shuffled, n, [&](int p) {
            DistinctPartition(shuffled.partition(p), &out.partition(p));
          });
          local_stats.records_processed += shuffled.NumRecords();
          ChargeCompute(shuffled);
          push_owned(std::move(out));
          break;
        }
      }

      if (store_output) {
        // First execution of an invariant node: move its output into the
        // cache and keep serving this Execute from the cached copy.
        Slot& s = slots.back();
        auto shared = std::make_shared<PartitionedDataset>(std::move(s.owned));
        cache->Emplace(node.id, ExecCache::Role::kOutput).data = shared;
        s.keepalive = shared;
        s.view = shared.get();
        s.is_owned = false;
        FLINKLESS_RETURN_NOT_OK(cache->OnEntryFilled(
            node.id, ExecCache::Role::kOutput, options_.tracer));
        if (op_span.active()) op_span.AddArg("cache_build", 1);
      }
    }

    count_output(node, *slots.back().view);
    if (op_span.active()) {
      const PartitionedDataset& produced = *slots.back().view;
      op_span.AddArg("records_in", static_cast<int64_t>(span_records_in));
      op_span.AddArg("records_out",
                     static_cast<int64_t>(produced.NumRecords()));
      if (per_partition_args_) {
        PartitionKeyBuffer out_key("out_p");
        for (int p = 0; p < produced.num_partitions(); ++p) {
          op_span.AddArg(out_key.Key(p),
                         static_cast<int64_t>(produced.partition(p).size()));
        }
      }
    }
    // Release the owned inputs this node read last, here on the
    // orchestration thread: freeing records inside the tasks, concurrently
    // with the allocations of other tasks, interleaves the allocator's
    // free lists and scatters every later dataset across the heap.
    for (int idx : node.inputs) {
      Slot& s = slots[idx];
      if (s.is_owned && last_reader[idx] == node.id && s.view != nullptr) {
        s.owned = PartitionedDataset();
        s.view = nullptr;
      }
    }
  }

  std::map<std::string, PartitionedDataset> outputs;
  std::map<int, int> outputs_left;
  for (const auto& [name, node] : plan.outputs()) ++outputs_left[node];
  for (const auto& [name, node] : plan.outputs()) {
    Slot& s = slots[node];
    // Executor-owned results move into their last requesting output;
    // borrowed/cached views are copied (callers own their outputs).
    if (s.is_owned && --outputs_left[node] == 0) {
      outputs.emplace(name, std::move(s.owned));
    } else {
      outputs.emplace(name, *s.view);
    }
  }
  if (options_.metrics != nullptr) {
    // Job-level roll-ups of this Execute, under the canonical v2 names.
    // The per-partition families (exec.records, shuffle.fanout) are
    // recorded at the operator/shuffle sites above; cache hits are counted
    // by the ExecCache itself.
    runtime::MetricsSink* m = options_.metrics;
    m->Count(runtime::metric::kExecBatchOps, -1, local_stats.batch_ops);
    m->Count(runtime::metric::kExecRowFallbackOps, -1,
             local_stats.row_fallback_ops);
    m->Count(runtime::metric::kCacheRecordsNotReshuffled, -1,
             local_stats.records_not_reshuffled);
  }
  if (stats != nullptr) stats->MergeFrom(local_stats);
  return outputs;
}

// ------------------------------------------------ confined-log replay --
//
// Rebuilds the plan outputs for the lost partitions from the logged
// post-shuffle channels (DESIGN.md §14). Two passes:
//
//  1. Backward demand analysis. Each node is demanded at kNone, kLost
//     (only the lost partitions of its output are needed) or kAll.
//     Narrow operators pass their demand to their input unchanged — they
//     are partition-local. A shuffle operator *stops* demand on a variant
//     input (its post-shuffle content is in the log) and raises kAll on an
//     invariant input (the side must be recomputed and re-shuffled in
//     full, since any source partition can feed a lost target). Cross
//     demands its left side at the node's demand and its right side —
//     broadcast everywhere during Execute — at kAll.
//
//  2. Serial forward pass over the demanded nodes, running the partition
//     kernels Execute runs on only the demanded partitions — so a
//     replayed partition is the bytes Execute produced, and the pass is
//     trivially deterministic: no threads, no budget interaction.
//
// Everything is charged to Charge::kRecovery: logged messages shipped
// into lost partitions at network rate, recomputed records on the
// critical path at cpu rate. Survivors contribute no charges — they idle
// until the replay completes, exactly the confined-recovery story.
Result<std::map<std::string, PartitionedDataset>> Executor::Replay(
    const Plan& plan, const Bindings& bindings, const std::vector<int>& lost,
    runtime::MessageLog* log, ExecStats* stats) const {
  FLINKLESS_RETURN_NOT_OK(plan.Validate());
  if (log == nullptr) {
    return Status::InvalidArgument("Replay needs a message log");
  }
  const int n = options_.num_partitions;
  std::vector<bool> is_lost(n, false);
  for (int p : lost) {
    if (p >= 0 && p < n) is_lost[p] = true;
  }

  runtime::TraceSpan span(options_.tracer, runtime::SpanKind::kMessageLogReplay,
                          "replay");

  // ---- pass 1: backward demand ----
  enum Demand { kNone = 0, kLost = 1, kAll = 2 };
  std::vector<bool> invariant = plan.InvariantNodes(log->volatile_bindings());
  const int num_nodes = static_cast<int>(plan.num_nodes());
  std::vector<Demand> demand(num_nodes, kNone);
  auto raise = [&](NodeId id, Demand d) {
    if (d > demand[id]) demand[id] = d;
  };
  for (const auto& [name, node_id] : plan.outputs()) raise(node_id, kLost);
  // Node ids are topologically ordered (operators only reference earlier
  // nodes), so one backward sweep settles every demand.
  for (int id = num_nodes - 1; id >= 0; --id) {
    if (demand[id] == kNone) continue;
    const PlanNode& node = plan.node(id);
    auto demand_shuffled = [&](NodeId input) {
      if (invariant[input]) raise(input, kAll);
      // Variant input: its post-shuffle bytes are a logged channel.
    };
    switch (node.kind) {
      case OpKind::kSource:
        break;
      case OpKind::kMap:
      case OpKind::kFlatMap:
      case OpKind::kFilter:
      case OpKind::kProject:
        raise(node.inputs[0], demand[id]);
        break;
      case OpKind::kUnion:
        raise(node.inputs[0], demand[id]);
        raise(node.inputs[1], demand[id]);
        break;
      case OpKind::kReduceByKey:
      case OpKind::kGroupReduceByKey:
      case OpKind::kDistinct:
        demand_shuffled(node.inputs[0]);
        break;
      case OpKind::kJoin:
      case OpKind::kCoGroup:
        demand_shuffled(node.inputs[0]);
        demand_shuffled(node.inputs[1]);
        break;
      case OpKind::kCross:
        raise(node.inputs[0], demand[id]);
        raise(node.inputs[1], kAll);
        break;
    }
  }
  // A demanded volatile source would need the failed superstep's *input*
  // state, which the driver has already advanced past. Every plan in
  // src/algos routes volatile data through a shuffle before any output,
  // so this only rejects plans confined-log recovery cannot serve.
  for (int id = 0; id < num_nodes; ++id) {
    const PlanNode& node = plan.node(id);
    if (node.kind == OpKind::kSource && demand[id] != kNone &&
        !invariant[id]) {
      return Status::FailedPrecondition(
          "confined-log replay: plan output depends on volatile source '" +
          node.source_name +
          "' outside any logged shuffle; the plan is not replayable");
    }
  }

  // ---- pass 2: serial forward execution of demanded partitions ----
  ExecStats local_stats;
  std::vector<uint64_t> replayed_per_part(n, 0);
  const bool charging =
      options_.clock != nullptr && options_.costs != nullptr;
  auto charge_recovery = [&](int64_t ns) {
    if (charging && ns > 0) {
      options_.clock->Add(runtime::Charge::kRecovery, ns);
    }
  };
  auto charge_shipped = [&](uint64_t records) {
    if (charging) {
      charge_recovery(options_.costs->network_per_record_ns *
                      static_cast<int64_t>(records));
    }
  };
  // Recomputation runs on the demanded partitions' workers in parallel in
  // the simulated cluster: charge the slowest one.
  auto charge_compute_critical = [&](const std::vector<uint64_t>& per_part) {
    uint64_t critical = 0;
    for (uint64_t records : per_part) critical = std::max(critical, records);
    if (charging) {
      charge_recovery(options_.costs->cpu_per_record_ns *
                      static_cast<int64_t>(critical));
    }
  };
  auto parts_of = [&](Demand d) {
    std::vector<int> parts;
    for (int p = 0; p < n; ++p) {
      if (d == kAll || (d == kLost && is_lost[p])) parts.push_back(p);
    }
    return parts;
  };

  struct RSlot {
    PartitionedDataset owned;
    const PartitionedDataset* view = nullptr;
  };
  std::vector<RSlot> slots(plan.num_nodes());
  auto input_of = [&](NodeId id) -> const PartitionedDataset& {
    FLINKLESS_CHECK(slots[id].view != nullptr,
                    "replay read an input that was never demanded");
    return *slots[id].view;
  };

  // Serial re-shuffle of a recomputed invariant dataset (the static side
  // re-shipped to the fresh workers; records landing in lost partitions
  // are a recovery charge) into the targets demanded at `d` — the
  // consuming kernel reads no others. Sources are visited in order, so
  // partition contents are byte-identical to ShuffleImpl's gather.
  auto scatter = [&](const PartitionedDataset& in, const KeyColumns& key,
                     Demand d) {
    PartitionedDataset out(n);
    uint64_t shipped = 0;
    for (int p = 0; p < in.num_partitions(); ++p) {
      for (const Record& r : in.partition(p)) {
        int target = PartitionedDataset::PartitionOf(r, key, n);
        if (is_lost[target]) ++shipped;
        if (d == kAll || is_lost[target]) out.partition(target).push_back(r);
      }
    }
    charge_shipped(shipped);
    return out;
  };

  // The shuffled input of a shuffle operator: the logged channel for a
  // variant input (counted as replayed messages; shipping into lost
  // partitions is charged at network rate), or a re-shuffle of the
  // recomputed invariant input. Returned by value: logged channels live in
  // budget-managed segments, and fetching a later channel may spill an
  // earlier one, so the demanded partitions are copied out while the
  // segment is resident.
  auto shuffled_input = [&](const PlanNode& node, NodeId input,
                            const char* port, const KeyColumns& key)
      -> Result<PartitionedDataset> {
    if (invariant[input]) {
      return scatter(input_of(input), key, demand[node.id]);
    }
    FLINKLESS_ASSIGN_OR_RETURN(
        const PartitionedDataset* channel,
        log->Channel(MsglogChannel(node.id, port), options_.tracer));
    if (channel->num_partitions() != n) {
      return Status::DataLoss("logged channel '" +
                              MsglogChannel(node.id, port) +
                              "' has the wrong partition count");
    }
    PartitionedDataset out(n);
    uint64_t shipped = 0;
    for (int p : parts_of(demand[node.id])) {
      uint64_t records = channel->partition(p).size();
      local_stats.messages_replayed += records;
      replayed_per_part[p] += records;
      if (is_lost[p]) shipped += records;
      out.partition(p) = channel->partition(p);
    }
    charge_shipped(shipped);
    return out;
  };

  // Every operator case runs the partition kernels Execute runs, on the
  // demanded partitions in order; `work` is each partition's share of the
  // recomputation critical path.
  for (int id = 0; id < num_nodes; ++id) {
    if (demand[id] == kNone) continue;
    const PlanNode& node = plan.node(id);
    const std::vector<int> parts = parts_of(demand[id]);
    PartitionedDataset out(n);
    std::vector<uint64_t> work(n, 0);

    switch (node.kind) {
      case OpKind::kSource: {
        auto it = bindings.find(node.source_name);
        if (it == bindings.end() || it->second == nullptr) {
          return Status::NotFound("replay: no binding for source '" +
                                  node.source_name + "'");
        }
        if (it->second->num_partitions() != n) {
          return Status::InvalidArgument(
              "replay binding '" + node.source_name + "' has " +
              std::to_string(it->second->num_partitions()) +
              " partitions, executor expects " + std::to_string(n));
        }
        slots[id].view = it->second;
        continue;
      }

      case OpKind::kMap:
      case OpKind::kFlatMap:
      case OpKind::kFilter:
      case OpKind::kProject: {
        const PartitionedDataset& in = input_of(node.inputs[0]);
        BatchSchema schema;
        const bool batched =
            node.batch_map_fn != nullptr &&
            ResolveBatchSchema(/*cache=*/nullptr, id, in, &schema);
        for (int p : parts) {
          FLINKLESS_RETURN_NOT_OK(
              NarrowPartition(node, batched ? &schema : nullptr,
                              in.partition(p), &out.partition(p)));
          work[p] = in.partition(p).size();
          local_stats.records_processed += work[p];
        }
        break;
      }

      case OpKind::kUnion: {
        const PartitionedDataset& a = input_of(node.inputs[0]);
        const PartitionedDataset& b = input_of(node.inputs[1]);
        for (int p : parts) {
          UnionPartition(a.partition(p), b.partition(p), &out.partition(p));
          work[p] = a.partition(p).size() + b.partition(p).size();
          local_stats.records_processed += work[p];
        }
        break;
      }

      case OpKind::kReduceByKey: {
        PartitionedDataset shuffled;
        if (invariant[node.inputs[0]] && node.pre_combine) {
          // Recompute path must mirror Execute exactly: local
          // pre-aggregation, then the shuffle. (Never taken by a logged
          // channel — those are post-combine bytes already.)
          const PartitionedDataset& in = input_of(node.inputs[0]);
          PartitionedDataset combined(in.num_partitions());
          for (int p = 0; p < in.num_partitions(); ++p) {
            FLINKLESS_RETURN_NOT_OK(
                ReducePartition(node, in.partition(p), /*validate=*/false,
                                &combined.partition(p)));
            local_stats.records_processed += in.partition(p).size();
          }
          shuffled = scatter(combined, node.left_key, demand[id]);
        } else {
          FLINKLESS_ASSIGN_OR_RETURN(
              shuffled,
              shuffled_input(node, node.inputs[0], "in", node.left_key));
        }
        for (int p : parts) {
          FLINKLESS_RETURN_NOT_OK(
              ReducePartition(node, shuffled.partition(p), /*validate=*/true,
                              &out.partition(p)));
          work[p] = shuffled.partition(p).size();
          local_stats.records_processed += work[p];
        }
        break;
      }

      case OpKind::kGroupReduceByKey:
      case OpKind::kDistinct: {
        FLINKLESS_ASSIGN_OR_RETURN(
            PartitionedDataset shuffled,
            shuffled_input(node, node.inputs[0], "in", node.left_key));
        for (int p : parts) {
          if (node.kind == OpKind::kDistinct) {
            DistinctPartition(shuffled.partition(p), &out.partition(p));
          } else {
            GroupReducePartition(node, shuffled.partition(p),
                                 &out.partition(p));
          }
          work[p] = shuffled.partition(p).size();
          local_stats.records_processed += work[p];
        }
        break;
      }

      case OpKind::kJoin:
      case OpKind::kCoGroup: {
        FLINKLESS_ASSIGN_OR_RETURN(
            PartitionedDataset left,
            shuffled_input(node, node.inputs[0], "l", node.left_key));
        FLINKLESS_ASSIGN_OR_RETURN(
            PartitionedDataset right,
            shuffled_input(node, node.inputs[1], "r", node.right_key));
        for (int p : parts) {
          if (node.kind == OpKind::kJoin) {
            JoinPartition(node, left.partition(p), right.partition(p),
                          /*metrics=*/nullptr, &out.partition(p));
          } else {
            CoGroupPartition(node, left.partition(p), right.partition(p),
                             &out.partition(p));
          }
          work[p] = left.partition(p).size() + right.partition(p).size();
          local_stats.records_processed += work[p];
        }
        break;
      }

      case OpKind::kCross: {
        const PartitionedDataset& left = input_of(node.inputs[0]);
        std::vector<Record> right_all = input_of(node.inputs[1]).Collect();
        // Execute broadcast the right side everywhere; recovery only
        // re-ships it to the partitions being rebuilt.
        uint64_t lost_targets = 0;
        for (int p : parts) {
          if (is_lost[p]) ++lost_targets;
        }
        charge_shipped(right_all.size() * lost_targets);
        for (int p : parts) {
          CrossPartition(node, left.partition(p), right_all,
                         &out.partition(p));
          work[p] = left.partition(p).size() * right_all.size();
          local_stats.records_processed +=
              left.partition(p).size() + right_all.size();
        }
        break;
      }
    }
    charge_compute_critical(work);
    slots[id].owned = std::move(out);
    slots[id].view = &slots[id].owned;
  }

  std::map<std::string, PartitionedDataset> outputs;
  for (const auto& [name, node_id] : plan.outputs()) {
    outputs.emplace(name, *slots[node_id].view);
  }

  if (options_.metrics != nullptr) {
    for (int p = 0; p < n; ++p) {
      if (replayed_per_part[p] > 0) {
        options_.metrics->Count(runtime::metric::kMsglogMessagesReplayed, p,
                                replayed_per_part[p]);
      }
    }
  }
  if (span.active()) {
    span.AddArg("partitions_lost", static_cast<int64_t>(lost.size()));
    span.AddArg("messages_replayed",
                static_cast<int64_t>(local_stats.messages_replayed));
    span.AddArg("records_recomputed",
                static_cast<int64_t>(local_stats.records_processed));
  }
  if (stats != nullptr) stats->MergeFrom(local_stats);
  return outputs;
}

}  // namespace flinkless::dataflow

// Per-layer measurement from outside the engine: folding a traced run's
// spans into layer self times with the layer-sum check, the per-layer calls
// on a workload's own data, and the read path over a converged result.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>

#include "bench_common.h"
#include "dataflow/record.h"
#include "runtime/tracing.h"
#include "server/read_view.h"
#include "workload.h"

namespace perfbench {

/// Layer-sum tolerance per window: the layers' self times may exceed the
/// window's wall by at most this share of it plus kLayerSumSlackMs (they
/// cannot, unless spans overlap or are counted twice), and no self time
/// may be below -kLayerSumSlackMs (a child outlasting its parent).
inline constexpr double kLayerSumShare = 0.01;
inline constexpr double kLayerSumSlackMs = 0.05;

/// Wall time of a traced run attributed to span categories, summed over all
/// windows (supersteps, or Pumps for the server workload).
struct LayerFold {
  /// Span category -> summed self time of job-level spans, ms.
  std::map<std::string, double> self_ms;
  /// Sum of the windows' walls and of what no span covers in them, ms.
  double wall_ms = 0.0;
  double other_ms = 0.0;
  /// Traced superstep walls minus IterationStats::wall_time_ns: the part
  /// of each superstep the iteration driver's own timer does not see (0 when the
  /// windows are not supersteps).
  double untimed_ms = 0.0;
  int windows = 0;
  /// Windows whose layers did not add up to their wall within tolerance.
  int violations = 0;
  std::string first_violation;
  uint64_t dropped_events = 0;

  double Self(flinkless::runtime::SpanKind kind) const {
    auto it = self_ms.find(flinkless::runtime::SpanKindName(kind));
    return it == self_ms.end() ? 0.0 : it->second;
  }
};

/// Folds the traced run's timelines over its windows (see JobRun::windows)
/// and runs the layer-sum check on every window.
LayerFold FoldLayers(const JobRun& run);

/// Prints the fold as a per-layer table with the unattributed share.
void PrintLayerFold(const std::string& workload, const LayerFold& fold);

/// Times Executor::Execute, Executor::Shuffle, FlatKeyIndex::Build and
/// FindFirstStripe, and dataset serde on `in`; adds the dataflow.* call
/// metrics to `report` and one self-check operation per call.
void MeasureLayerCalls(const LayerCallInputs& in, Report* report);

/// Publishes a converged result into a fresh ReadView with every partition
/// marked wanted (so the publish materializes them all) and adds the
/// publish time to `run->publish_ms`.
std::unique_ptr<flinkless::server::ReadView> PublishConverged(
    int64_t num_vertices,
    const std::function<void(flinkless::server::ReadView*)>& publish,
    JobRun* run);

/// Read path without a server: while alive, a thread of its own answers one
/// batch of kBatchKeys keys drawn from [0, num_vertices) from `view` every
/// kReadPeriodUs, so the reads sample the whole job they run beside, as the
/// server's client does between pumps. `check` validates each answered
/// record against the reference. Does nothing when `view` is null (no
/// result published yet). Stop() (or the destructor) joins the thread.
class BackgroundReader {
 public:
  static constexpr int kReadPeriodUs = 1000;
  using Check =
      std::function<bool(int64_t, const flinkless::dataflow::Record&)>;

  BackgroundReader(flinkless::server::ReadView* view, int64_t num_vertices,
                   std::mt19937_64* rng, Check check, JobRun* run);
  ~BackgroundReader() { Stop(); }
  BackgroundReader(const BackgroundReader&) = delete;
  BackgroundReader& operator=(const BackgroundReader&) = delete;

  void Stop();

 private:
  void Loop();

  flinkless::server::ReadView* view_;
  int64_t num_vertices_;
  std::mt19937_64* rng_;
  Check check_;
  JobRun* run_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// FNV-1a over raw bytes, for output digests.
void DigestBytes(uint64_t* digest, const void* data, size_t size);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_

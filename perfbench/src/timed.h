// Timing decorators for the policy and compensation layers. They forward
// every hook and name() to the wrapped object unchanged and only observe:
// wall time and call count per hook. The traced run checks that a wrapped
// job produces the same outputs, supersteps and SimClock totals as an
// unwrapped one.

#ifndef PERFBENCH_TIMED_H_
#define PERFBENCH_TIMED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/compensation.h"
#include "iteration/policy.h"

namespace perfbench {

/// Accumulated wall time and calls of one hook.
struct HookTime {
  int64_t ns = 0;
  uint64_t calls = 0;

  double ms() const { return static_cast<double>(ns) / 1e6; }
};

class TimedPolicy final : public flinkless::iteration::FaultTolerancePolicy {
 public:
  /// `inner` is borrowed and must outlive the decorator.
  explicit TimedPolicy(flinkless::iteration::FaultTolerancePolicy* inner)
      : inner_(inner) {}

  std::string name() const override { return inner_->name(); }

  flinkless::Status OnJobStart(
      const flinkless::iteration::IterationContext& ctx,
      flinkless::iteration::IterationState* state) override {
    const int64_t t0 = NowNs();
    flinkless::Status st = inner_->OnJobStart(ctx, state);
    Note(&start_, t0);
    return st;
  }

  flinkless::Status AfterIteration(
      const flinkless::iteration::IterationContext& ctx,
      flinkless::iteration::IterationState* state) override {
    const int64_t t0 = NowNs();
    flinkless::Status st = inner_->AfterIteration(ctx, state);
    Note(&after_iteration_, t0);
    return st;
  }

  flinkless::Result<flinkless::iteration::RecoveryOutcome> OnFailure(
      const flinkless::iteration::IterationContext& ctx,
      flinkless::iteration::IterationState* state,
      const std::vector<int>& lost) override {
    const int64_t t0 = NowNs();
    auto outcome = inner_->OnFailure(ctx, state, lost);
    Note(&on_failure_, t0);
    return outcome;
  }

  const HookTime& start() const { return start_; }
  const HookTime& after_iteration() const { return after_iteration_; }
  const HookTime& on_failure() const { return on_failure_; }

 private:
  static void Note(HookTime* hook, int64_t t0) {
    hook->ns += NowNs() - t0;
    ++hook->calls;
  }

  flinkless::iteration::FaultTolerancePolicy* inner_;
  HookTime start_;
  HookTime after_iteration_;
  HookTime on_failure_;
};

class TimedCompensation final : public flinkless::core::CompensationFunction {
 public:
  /// `inner` is borrowed and must outlive the decorator.
  explicit TimedCompensation(flinkless::core::CompensationFunction* inner)
      : inner_(inner) {}

  std::string name() const override { return inner_->name(); }

  flinkless::Status Compensate(
      const flinkless::iteration::IterationContext& ctx,
      flinkless::iteration::IterationState* state,
      const std::vector<int>& lost) override {
    const int64_t t0 = NowNs();
    flinkless::Status st = inner_->Compensate(ctx, state, lost);
    compensate_.ns += NowNs() - t0;
    ++compensate_.calls;
    return st;
  }

  const HookTime& compensate() const { return compensate_; }

 private:
  flinkless::core::CompensationFunction* inner_;
  HookTime compensate_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_H_

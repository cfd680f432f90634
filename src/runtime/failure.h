// Failure injection.
//
// The demo lets attendees "choose which partitions to fail and in which
// iterations". A FailureSchedule is the programmatic version of those
// clicks: a list of (iteration, partitions) events. The iteration drivers
// query the schedule at each superstep boundary and destroy the iteration
// state of the named partitions, which is exactly what a crashed task
// manager loses. RandomFailures builds a schedule stochastically for the
// larger sweeps.

#ifndef FLINKLESS_RUNTIME_FAILURE_H_
#define FLINKLESS_RUNTIME_FAILURE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"

namespace flinkless::runtime {

/// One injected failure: at the end of `iteration` (1-based), the iteration
/// state held by `partitions` is lost.
struct FailureEvent {
  int iteration = 0;
  std::vector<int> partitions;

  std::string ToString() const;
};

/// An ordered list of failure events. Each event fires exactly once.
class FailureSchedule {
 public:
  FailureSchedule() = default;
  explicit FailureSchedule(std::vector<FailureEvent> events);

  /// Adds one event. Events may target the same iteration more than once;
  /// their partition lists are combined when queried.
  void Add(FailureEvent event);

  /// Partitions failing at the given iteration that have not fired yet,
  /// sorted, each named once even when several events list it. Marks them
  /// fired. Returns an empty vector when nothing fails.
  std::vector<int> Fire(int iteration);

  /// Partitions scheduled at `iteration` without consuming them.
  std::vector<int> Peek(int iteration) const;

  /// True when no event is scheduled at all.
  bool empty() const { return events_.empty(); }

  /// Number of events not yet fired.
  size_t remaining() const;

  /// Resets all events to unfired (so a schedule can be reused across runs).
  void Rewind();

  const std::vector<FailureEvent>& events() const { return events_; }

  /// Parses "iter:part[,part...][;iter:parts...]", e.g. "3:0;5:1,2".
  /// Used by the demo drivers' --fail flag.
  static Result<FailureSchedule> Parse(const std::string& spec);

 private:
  std::vector<FailureEvent> events_;
  std::vector<bool> fired_;
};

/// Builds a schedule where, in each of `max_iterations` iterations, each of
/// `num_partitions` partitions fails independently with probability
/// `per_iteration_prob` (a discrete MTBF model).
FailureSchedule RandomFailures(int max_iterations, int num_partitions,
                               double per_iteration_prob, Rng* rng);

}  // namespace flinkless::runtime

#endif  // FLINKLESS_RUNTIME_FAILURE_H_

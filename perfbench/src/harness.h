// The two modes of a benchmark run. The timed mode measures the end-to-end
// metrics from untraced jobs; the traced mode measures the per-layer
// metrics from one traced job plus the runs they are netted against.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <functional>
#include <memory>
#include <string>

#include "bench_common.h"
#include "workload.h"

namespace perfbench {

using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

Report RunTimed(const std::string& name, const WorkloadFactory& make,
                const Options& options);

Report RunTraced(const std::string& name, const WorkloadFactory& make,
                 const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

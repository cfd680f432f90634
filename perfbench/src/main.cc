// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload (see perfbench/README.md) and prints, as the last line
// of standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics from untraced jobs;
// --trace 1 reports the per-layer metrics from a traced job and the runs
// netted against it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "common/logging.h"
#include "harness.h"
#include "workload.h"

namespace {

using perfbench::Options;
using perfbench::Report;

int Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  return 2;
}

/// JSON string escaping for the names and units this program emits.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintResult(const Report& report) {
  bool finite = true;
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("metric %-36s %20.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    finite = finite && std::isfinite(m.value);
  }
  const perfbench::Outcome& outcome = report.outcome;
  for (const std::string& problem : outcome.problems) {
    std::printf("problem: %s\n", problem.c_str());
  }
  const bool correct = outcome.failed == 0 && finite;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += Quote(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + Quote(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Usage("bad argument '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(required) == 0) {
      return Usage(std::string("missing --") + required);
    }
  }
  Options options;
  options.workload = args["workload"];
  char* end = nullptr;
  options.seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage("--seed must be a whole number");
  options.seconds = std::atoi(args["seconds"].c_str());
  if (options.seconds < 1) return Usage("--seconds must be at least 1");
  if (args["trace"] != "0" && args["trace"] != "1") {
    return Usage("--trace must be 0 or 1");
  }
  options.trace = args["trace"] == "1";

  const std::map<std::string, perfbench::WorkloadFactory> workloads = {
      {"pagerank-rmat16-optimistic", perfbench::MakePageRankWorkload},
      {"cc-grid128-confined-log", perfbench::MakeCcWorkload},
      {"serve-cc-budgeted", perfbench::MakeServeWorkload},
  };
  auto it = workloads.find(options.workload);
  if (it == workloads.end()) {
    return Usage("unknown workload '" + options.workload + "'");
  }

  flinkless::SetLogLevel(flinkless::LogLevel::kWarning);
  std::printf("perfbench %s seed=%llu seconds=%d trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  const Report report =
      options.trace
          ? perfbench::RunTraced(options.workload, it->second, options)
          : perfbench::RunTimed(options.workload, it->second, options);
  PrintResult(report);
  return 0;
}

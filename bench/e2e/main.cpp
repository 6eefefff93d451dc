/// \file main.cpp
/// tsce_bench: end-to-end and per-layer benchmark of the allocation
/// pipelines (see README.md).
///
///   tsce_bench --workload s1_loaded --seed 2005 --seconds 28 --trace 0
///
/// Prints a human-readable report, then one JSON result line:
///   {"correct": true, "attempted": N, "failed": 0,
///    "metrics": {"pipeline_s": {"value": 0.71, "unit": "s"}, ...}}
/// An untraced run (--trace 0) reports the end-to-end metrics, a traced run
/// (--trace 1) the per-layer ones.  Exits 1 when a correctness check fails
/// and 2 on a usage error.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "util/flags.hpp"
#include "workloads.hpp"

namespace {

using namespace tsce::bench::e2e;

bool all_finite(const RunResult& result) {
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) return false;
  }
  return true;
}

std::string result_line(const RunResult& result, bool correct) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit +
            "\"}";
  }
  line += "}}";
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::int64_t seed = 2005;
  double seconds = 28.0;
  std::int64_t trace = 0;
  std::int64_t instances = 0;
  std::string trace_out;
  tsce::util::Flags flags(
      "tsce_bench — end-to-end and per-layer benchmark of the allocation pipelines");
  flags.add("workload", &workload_name, "s1_loaded | s2_qos | s3_slack | par_search");
  flags.add("seed", &seed, "workload seed (2005 for baselines, 4242 held out)");
  flags.add("seconds", &seconds, "measuring time per run");
  flags.add("trace", &trace, "0: end-to-end metrics; 1: traced run, per-layer metrics");
  flags.add("instances", &instances, "stop after this many instances (0: time-boxed)");
  flags.add("trace-out", &trace_out, "traced run: write Chrome trace-event JSON here");
  if (!flags.parse(argc, argv)) return 2;

  const WorkloadSpec* spec = find_workload(workload_name);
  if (spec == nullptr || seed < 0 || !(seconds > 0.0) || std::isinf(seconds) ||
      (trace != 0 && trace != 1) || instances < 0) {
    std::fprintf(stderr, "error: bad arguments (try --help); workloads:");
    for (const WorkloadSpec& w : workloads()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  RunOptions options;
  options.seed = static_cast<std::uint64_t>(seed);
  options.seconds = seconds;
  options.trace = trace == 1;
  options.instance_limit = static_cast<std::size_t>(instances);
  options.trace_out = trace_out;
  const RunResult result = run_workload(*spec, options);

  for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
  for (const Metric& m : result.metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = result.failed == 0 && all_finite(result);
  if (!all_finite(result)) std::fprintf(stderr, "error: a metric is not finite\n");
  std::printf("%s\n", result_line(result, correct).c_str());
  return correct ? 0 : 1;
}

// perfbench, the adGRAPH-sim benchmark: runs one workload and prints its
// metrics.  Usage:
//
//   perfbench --workload <paper-grid|engine-placements|serve-read|serve-mutate>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  The exit
// code is nonzero when any operation failed or any output mismatched.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "grid.h"
#include "metrics.h"
#include "serve_load.h"

namespace perfbench {
namespace {

int Usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload <paper-grid|engine-placements|"
               "serve-read|serve-mutate> --seed <n> --seconds <s> "
               "--trace <0|1>\n";
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("unexpected argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("every flag takes one value");
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (!args.count(required)) {
      return Usage(std::string("missing --") + required);
    }
  }
  RunOptions options;
  char* end = nullptr;
  options.seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage("--seed must be a whole number");
  options.seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(options.seconds > 0)) {
    return Usage("--seconds must be > 0");
  }
  if (args["trace"] != "0" && args["trace"] != "1") {
    return Usage("--trace must be 0 or 1");
  }
  options.trace = args["trace"] == "1";

  const std::string& workload = args["workload"];
  WorkloadResult result;
  if (workload == "paper-grid") {
    result = RunPaperGrid(options);
  } else if (workload == "engine-placements") {
    result = RunEnginePlacements(options);
  } else if (workload == "serve-read") {
    result = RunServeRead(options);
  } else if (workload == "serve-mutate") {
    result = RunServeMutate(options);
  } else {
    return Usage("unknown workload '" + workload + "'");
  }

  std::vector<std::string> unknown;
  const MetricMap e2e =
      Complete(EndToEndMetrics(), result.end_to_end, &unknown);
  const MetricMap layers =
      Complete(PerLayerMetrics(), result.per_layer, &unknown);
  for (const std::string& name : unknown) {
    std::cerr << "perfbench: internal error: unlisted metric " << name << "\n";
    return 3;
  }
  for (const std::string& note : result.notes) std::cout << note << "\n";
  const double failed_frac =
      result.attempted
          ? static_cast<double>(result.failed) / result.attempted
          : 1.0;
  std::cout << workload << ": failed_frac = " << failed_frac << " ("
            << result.failed << " of " << result.attempted << ")\n";
  const MetricMap& shown = options.trace ? layers : e2e;
  for (const auto& [name, metric] : shown) {
    std::cout << workload << ": " << name << " = " << JsonNumber(metric.value)
              << " " << metric.unit << "\n";
  }

  const bool correct = result.failed == 0 && result.attempted > 0;
  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : shown) {
    json += (first ? "" : ", ") + std::string("\"") + name +
            "\": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics every workload reports from its untraced run, in
/// BENCHMARK.json order.  A "pass" is one round of the workload's fixed,
/// seeded operation list.
const std::vector<MetricSpec>& EndToEndMetrics();

/// The per-layer metrics every workload reports from its traced run; a
/// layer a workload does not exercise reports 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// `values` restricted to, and completed with zeros over, `specs`.  Names
/// in `values` that `specs` lacks are returned in `unknown`.
MetricMap Complete(const std::vector<MetricSpec>& specs,
                   const MetricMap& values, std::vector<std::string>* unknown);

/// Sets `name` in `map` with the unit `specs` gives it.
void Put(MetricMap* map, const std::string& name, double value);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_

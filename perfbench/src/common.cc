#include "common.h"

#include <sys/resource.h>

#include <sstream>

#include "core/bfs.h"
#include "core/host_ref.h"

namespace perfbench {

uint64_t BenchTrack(const std::string& name) {
  thread_local uint64_t track = adgraph::trace::RegisterTrack(name);
  return track;
}

adgraph::graph::vid_t DrawSource(const adgraph::graph::CsrGraph& g,
                                 std::mt19937_64* rng) {
  using adgraph::graph::vid_t;
  vid_t hub = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  std::vector<vid_t> reached;
  const auto levels = adgraph::core::host_ref::BfsLevels(g, hub);
  for (vid_t v = 0; v < levels.size(); ++v) {
    if (levels[v] != adgraph::core::kUnreachedLevel) reached.push_back(v);
  }
  return reached[(*rng)() % reached.size()];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Fixed(double v, int digits) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(digits);
  out << v;
  return out.str();
}

WorkloadResult SetupFailure(const std::string& workload,
                            const adgraph::Status& status) {
  WorkloadResult result;
  result.attempted = 1;
  result.failed = 1;
  result.notes.push_back(workload + ": set-up failed: " + status.ToString());
  return result;
}

Windows SplitWindows(const RunOptions& options) {
  if (!options.trace) return {options.seconds, 0};
  return {options.seconds / 2, options.seconds / 2};
}

}  // namespace perfbench

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "spans.h"
#include "trace/trace.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One reported number.  `unit` names the clock for times: every "_ms"/"_s"
/// metric is host wall time unless its name says "modeled".
struct Metric {
  double value = 0;
  std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/// What the command line selects for one run.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics from an untraced timed phase.  true: the
  /// timed phase runs half untraced and half traced, and the run reports
  /// the per-layer metrics.
  bool trace = false;
};

/// Outcome of one workload run.
struct WorkloadResult {
  /// Operations attempted and failed (errors, refusals, output mismatches).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricMap end_to_end;
  MetricMap per_layer;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;
};

/// The track of the benchmark's own spans around each public call it makes:
/// one per calling thread, registered under `name` on the thread's first
/// call, so spans of concurrent clients never nest.
uint64_t BenchTrack(const std::string& name = "bench");

/// Span named "<layer>.<call>" (category "bench") on `track`; inert when no
/// trace sink is attached.
inline adgraph::trace::Span CallSpan(uint64_t track, std::string name) {
  return adgraph::trace::Span(track, std::move(name), "bench");
}

/// A seeded source vertex drawn from the vertices reachable from the
/// highest-degree vertex (the giant component), so that no seed strands a
/// traversal in a tiny component and the work stays comparable across seeds.
adgraph::graph::vid_t DrawSource(const adgraph::graph::CsrGraph& g,
                                 std::mt19937_64* rng);

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// How a run splits --seconds: all untraced, or half untraced (the
/// baseline of trace.overhead_frac) and half traced.
struct Windows {
  double untraced_s = 0;
  double traced_s = 0;
};
Windows SplitWindows(const RunOptions& options);

/// `v` in fixed notation with `digits` decimals, for the human-readable
/// lines.
std::string Fixed(double v, int digits = 3);

/// The result of a run whose set-up failed: one failed operation.
WorkloadResult SetupFailure(const std::string& workload,
                            const adgraph::Status& status);

/// Capacity of the benchmark's trace collectors.  Rings grow on demand, so
/// the bound costs nothing until used; a traced run that still drops spans
/// fails.
inline constexpr size_t kCollectorCapacity = size_t{1} << 23;

/// Times `setups` fresh set-ups, appending each one's seconds to `setup_s`,
/// and returns the last one's product (a Result).  Each earlier product is
/// torn down, untimed, before the next set-up starts.  With `trace`, the
/// last set-up runs under a collector that is folded into `digest`.
template <typename Setup>
auto TimedSetups(int setups, bool trace, bool per_track,
                 std::vector<double>* setup_s, TraceDigest* digest,
                 Setup&& setup) -> decltype(setup()) {
  decltype(setup()) product = adgraph::Status::Internal("no set-up ran");
  for (int i = 0; i < setups; ++i) {
    product = adgraph::Status::Internal("torn down");
    std::optional<adgraph::trace::Collector> collector;
    if (trace && i + 1 == setups) collector.emplace(kCollectorCapacity);
    const Clock::time_point t0 = Clock::now();
    product = setup();
    setup_s->push_back(MsSince(t0) / 1e3);
    if (!product.ok()) return product;
    if (collector) digest->Add(collector->Events(), per_track);
  }
  return product;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

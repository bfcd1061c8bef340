#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace perfbench {

/// Self time of every event, in microseconds, aligned with `events`: a
/// span's duration minus the part of its interval that its child spans
/// cover.  A child is a span that lies wholly inside its parent on the
/// same timeline.  With `per_track` each trace track is its own timeline
/// (spans of concurrent threads never nest); otherwise every event is on
/// one timeline, which is right when one thread emitted them all.
/// Instants have self time 0.
std::vector<double> SelfTimesUs(
    const std::vector<adgraph::trace::TraceEvent>& events, bool per_track);

/// Running totals over traced windows.
struct TraceDigest {
  /// Self time by module: the benchmark's own spans are named
  /// "<layer>.<call>"; program spans map by category (kernel -> vgpu,
  /// memcpy -> core, algo/phase/engine -> engine, or part/ooc for the
  /// partitioned and streamed round loops, exchange -> part,
  /// stream -> ooc, cache/serve -> serve, net -> net).
  std::map<std::string, double, std::less<>> self_ms_by_layer;
  /// Summed duration of the benchmark's own spans, by span name.
  std::map<std::string, double, std::less<>> bench_total_ms;
  uint64_t kernel_spans = 0;
  uint64_t phase_spans = 0;
  double kernel_host_ms = 0;
  double kernel_modeled_ms = 0;
  double warp_inst = 0;
  double memcpy_host_ms = 0;
  double h2d_bytes = 0;
  /// Self time of algo/phase/engine spans: engine work outside its kernel
  /// and memcpy children.
  double engine_self_ms = 0;

  void Add(const std::vector<adgraph::trace::TraceEvent>& events,
           bool per_track);
  /// bench_total_ms[name], 0 when no such span was seen.
  double BenchTotalMs(const std::string& name) const;
  /// self_ms_by_layer[layer], 0 when the layer emitted no span.
  double LayerSelfMs(const std::string& layer) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_

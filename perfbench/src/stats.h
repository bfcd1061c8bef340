#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples of `n` that lie above the nearest-rank percentile `p` (in
/// [0, 1]), as adgraph::prof::Percentile selects it.
size_t SamplesBeyond(size_t n, double p);

/// The highest percentile on the ladder {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}
/// that leaves at least `min_beyond` samples above it — the tail a run of
/// `n` samples can honestly report.  Empty when not even the median
/// qualifies.
std::optional<double> ReportableTail(size_t n, size_t min_beyond = 10);

/// Median of an unsorted sample: the middle value, or the mean of the two
/// middle values of an even count (0 when empty).  Unlike nearest-rank p50
/// it does not jump from one cluster to the next when a handful of unlike
/// samples — a grid's cells — splits evenly around the middle.
double Median(std::vector<double> samples);

/// A timing distribution as the benchmark reports it.
struct Summary {
  size_t n = 0;
  double p50 = 0;  ///< Median()
  double p99 = 0;  ///< nearest rank (prof::Percentile)
  /// Highest ladder percentile (in [0, 1]) with >= 10 samples beyond it,
  /// and its value.
  std::optional<double> tail_p;
  double tail = 0;
};

Summary Summarize(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

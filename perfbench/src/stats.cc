#include "stats.h"

#include <algorithm>
#include <numeric>

#include "prof/metrics.h"

namespace perfbench {

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  // The rank prof::Percentile picks is the value it returns from 1..n.
  std::vector<double> ranks(n);
  std::iota(ranks.begin(), ranks.end(), 1.0);
  return n - static_cast<size_t>(adgraph::prof::Percentile(ranks, p));
}

std::optional<double> ReportableTail(size_t n, size_t min_beyond) {
  // Written as fractions: 99.9 / 100 rounds above 0.999 and would pick
  // the next rank.
  for (double p : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (n > 0 && SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return std::nullopt;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 ? samples[mid]
                            : (samples[mid - 1] + samples[mid]) / 2;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  s.p50 = Median(samples);
  s.p99 = adgraph::prof::Percentile(samples, 0.99);
  s.tail_p = ReportableTail(s.n);
  if (s.tail_p) s.tail = adgraph::prof::Percentile(samples, *s.tail_p);
  return s;
}

}  // namespace perfbench

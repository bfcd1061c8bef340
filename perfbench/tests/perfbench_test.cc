// Tests of the benchmark's own code: percentile selection, self-time
// folding, and run-to-run determinism of the modeled clock and the layer
// counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "grid.h"
#include "metrics.h"
#include "prof/metrics.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

using adgraph::trace::TraceEvent;

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(StatsTest, PercentileIsNearestRankWithoutRoundingUpExactProducts) {
  // The benchmark's p99 and tails are prof::Percentile's nearest rank; an
  // exact product such as 0.99 * 1000 must not round up to the next rank,
  // or every tail below would have one sample fewer beyond it.
  using adgraph::prof::Percentile;
  EXPECT_EQ(Percentile(OneTo(10), 0.50), 5);
  EXPECT_EQ(Percentile(OneTo(10), 0.51), 6);
  EXPECT_EQ(Percentile(OneTo(10), 0.99), 10);
  EXPECT_EQ(Percentile(OneTo(1000), 0.99), 990);
  EXPECT_EQ(Percentile(OneTo(200), 0.95), 190);
  EXPECT_EQ(Percentile(OneTo(10000), 0.999), 9990);
}

TEST(StatsTest, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);  // rank ceil(989.01) = 990
  EXPECT_EQ(SamplesBeyond(1009, 0.99), 10u);
  EXPECT_EQ(ReportableTail(10000), 0.999);
  EXPECT_EQ(ReportableTail(1000), 0.99);
  EXPECT_EQ(ReportableTail(999), 0.95);
  EXPECT_EQ(ReportableTail(200), 0.95);
  EXPECT_EQ(ReportableTail(199), 0.9);
  EXPECT_EQ(ReportableTail(20), 0.5);
  EXPECT_EQ(ReportableTail(19), std::nullopt);
  EXPECT_EQ(ReportableTail(0), std::nullopt);
}

TEST(StatsTest, SummaryReportsMedianP99AndTail) {
  std::vector<double> v = OneTo(250);
  std::reverse(v.begin(), v.end());  // Summarize sorts
  const Summary s = Summarize(v);
  EXPECT_EQ(s.n, 250u);
  EXPECT_EQ(s.p50, 125.5);  // the mean of the two middle samples
  EXPECT_EQ(s.p99, 248);
  ASSERT_TRUE(s.tail_p.has_value());
  EXPECT_EQ(*s.tail_p, 0.95);
  EXPECT_EQ(s.tail, 238);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TraceEvent Span(const char* name, const char* category, uint64_t track,
                double ts, double dur) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.track = track;
  e.ts_us = ts;
  e.dur_us = dur;
  return e;
}

TEST(SpansTest, SelfTimeSubtractsTheUnionOfChildren) {
  // run [0,100): algo [10,90) holds kernels [20,40) and [30,50) (which
  // overlap: their union is 30) and a memcpy [60,70); a grandchild [25,35)
  // only reduces its own parent.
  const std::vector<TraceEvent> events = {
      Span("core.run", "bench", 1, 0, 100),
      Span("algo:bfs", "algo", 2, 10, 80),
      Span("k1", "kernel", 2, 20, 20),
      Span("k2", "kernel", 2, 30, 20),
      Span("memcpy_h2d", "memcpy", 2, 60, 10),
      Span("inner", "phase", 2, 25, 10),
  };
  const std::vector<double> one = SelfTimesUs(events, /*per_track=*/false);
  EXPECT_DOUBLE_EQ(one[0], 20);  // 100 - 80
  EXPECT_DOUBLE_EQ(one[1], 40);  // 80 - (30 + 10)
  EXPECT_DOUBLE_EQ(one[2], 10);  // 20 - 10 (inner)
  EXPECT_DOUBLE_EQ(one[3], 20);
  EXPECT_DOUBLE_EQ(one[4], 10);
  EXPECT_DOUBLE_EQ(one[5], 10);
  // Per track, the bench span on track 1 has no children.
  const std::vector<double> per_track = SelfTimesUs(events, /*per_track=*/true);
  EXPECT_DOUBLE_EQ(per_track[0], 100);
  EXPECT_DOUBLE_EQ(per_track[1], 40);
}

TEST(SpansTest, OverlappingSpanIsNotAChild) {
  // A retroactive queue-wait span overlaps the previous job's span without
  // nesting in it; neither reduces the other.
  const std::vector<TraceEvent> events = {
      Span("job", "serve", 1, 0, 50),
      Span("queue_wait", "serve", 1, 40, 30),
      Span("k", "kernel", 1, 60, 5),
  };
  const std::vector<double> self = SelfTimesUs(events, true);
  EXPECT_DOUBLE_EQ(self[0], 50);
  EXPECT_DOUBLE_EQ(self[1], 25);
  EXPECT_DOUBLE_EQ(self[2], 5);
}

TEST(SpansTest, DigestFoldsByLayer) {
  TraceEvent kernel = Span("bfs_expand", "kernel", 2, 20, 20);
  kernel.args.push_back({"modeled_ms", "0.5", true});
  kernel.args.push_back({"warp_inst_issued", "1000", true});
  TraceEvent h2d = Span("memcpy_h2d", "memcpy", 2, 50, 10);
  h2d.args.push_back({"bytes", "4096", true});
  TraceDigest d;
  d.Add({Span("part.run", "bench", 1, 0, 100),
         Span("algo:part_bfs", "algo", 3, 10, 80),
         Span("part_bfs.round", "phase", 3, 15, 70), kernel, h2d},
        /*per_track=*/false);
  EXPECT_DOUBLE_EQ(d.self_ms_by_layer["part"], (20 + 10 + 40) / 1e3);
  EXPECT_DOUBLE_EQ(d.self_ms_by_layer["vgpu"], 20 / 1e3);
  EXPECT_DOUBLE_EQ(d.self_ms_by_layer["core"], 10 / 1e3);
  EXPECT_EQ(d.kernel_spans, 1u);
  EXPECT_EQ(d.phase_spans, 1u);
  EXPECT_DOUBLE_EQ(d.kernel_modeled_ms, 0.5);
  EXPECT_DOUBLE_EQ(d.warp_inst, 1000);
  EXPECT_DOUBLE_EQ(d.h2d_bytes, 4096);
  EXPECT_DOUBLE_EQ(d.engine_self_ms, 0);  // part's loop is not engine time
}

// The counts that must repeat exactly for one seed: everything but host
// wall time.
const char* const kExactCounts[] = {
    "engine.rounds",          "engine.launches",     "vgpu.warp_inst",
    "vgpu.warps_launched",    "vgpu.global_transactions",
    "vgpu.l2_hit_ratio",      "vgpu.l2_accesses",    "part.exchange_bytes",
    "part.exchange_rounds",   "ooc.staged_bytes",    "ooc.shards",
    "core.h2d_bytes",         "trace.dropped_spans",
};

void ExpectSameCounts(const WorkloadResult& a, const WorkloadResult& b) {
  ASSERT_EQ(a.failed, 0u);
  ASSERT_EQ(b.failed, 0u);
  EXPECT_EQ(a.end_to_end.at("modeled_ms").value,
            b.end_to_end.at("modeled_ms").value);
  EXPECT_GT(a.end_to_end.at("modeled_ms").value, 0);
  for (const char* name : kExactCounts) {
    EXPECT_EQ(a.per_layer.at(name).value, b.per_layer.at(name).value) << name;
  }
}

TEST(DeterminismTest, EnginePlacementsRepeatsModeledTimeAndCounts) {
  RunOptions options;
  options.seed = 7;
  options.seconds = 0.01;  // one untraced and one traced pass
  options.trace = true;
  PlacementsConfig config;
  config.extra_divisor = 256;
  config.lattice_vertices = 512;
  config.setups = 1;
  const WorkloadResult a = RunEnginePlacements(options, config);
  const WorkloadResult b = RunEnginePlacements(options, config);
  ExpectSameCounts(a, b);
  EXPECT_GT(a.per_layer.at("part.exchange_bytes").value, 0);
  EXPECT_GE(a.per_layer.at("ooc.shards").value, 16);  // >= 4 per streamed cell
  EXPECT_EQ(a.per_layer.at("trace.dropped_spans").value, 0);
}

TEST(DeterminismTest, PaperGridRepeatsModeledTimeAndCounts) {
  RunOptions options;
  options.seed = 7;
  options.seconds = 0.01;
  options.trace = true;
  PaperGridConfig config;
  config.extra_divisor = 64;
  config.setups = 1;
  const WorkloadResult a = RunPaperGrid(options, config);
  const WorkloadResult b = RunPaperGrid(options, config);
  ExpectSameCounts(a, b);
  EXPECT_GT(a.per_layer.at("vgpu.global_transactions").value, 0);
}

TEST(MetricsTest, CompleteKeepsExactlyTheListedMetrics) {
  MetricMap values;
  Put(&values, "host_s", 1.5);
  Put(&values, "not_a_metric", 2);
  std::vector<std::string> unknown;
  const MetricMap out = Complete(EndToEndMetrics(), values, &unknown);
  EXPECT_EQ(out.size(), EndToEndMetrics().size());
  EXPECT_EQ(out.at("host_s").value, 1.5);
  EXPECT_EQ(out.at("host_s").unit, "s");
  EXPECT_EQ(out.at("setup_s").value, 0);
  EXPECT_EQ(unknown, std::vector<std::string>{"not_a_metric"});
}

}  // namespace
}  // namespace perfbench

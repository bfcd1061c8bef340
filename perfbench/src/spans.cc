#include "spans.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>
#include <utility>

namespace perfbench {

using adgraph::trace::TraceEvent;

namespace {

double End(const TraceEvent& e) { return e.ts_us + e.dur_us; }

// Length of the union of [lo, hi) intervals, each clipped to [from, to).
double CoveredUs(std::vector<std::pair<double, double>> intervals,
                 double from, double to) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double cursor = from;
  for (auto [lo, hi] : intervals) {
    lo = std::max(lo, cursor);
    hi = std::min(hi, to);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return covered;
}

// The module a span belongs to (see TraceDigest::self_ms_by_layer).
std::string_view LayerOf(const TraceEvent& event) {
  const std::string& cat = event.category;
  if (cat == "bench") {
    std::string_view name = event.name;
    return name.substr(0, name.find('.'));
  }
  if (cat == "kernel") return "vgpu";
  if (cat == "memcpy") return "core";
  if (cat == "algo" || cat == "phase") {
    // The partitioned and streamed runners have their own round loops.
    if (event.name.find("part_") != std::string::npos) return "part";
    if (event.name.find("_streamed") != std::string::npos) return "ooc";
    return "engine";
  }
  if (cat == "engine") return "engine";
  if (cat == "exchange") return "part";
  if (cat == "stream") return "ooc";
  if (cat == "cache" || cat == "serve") return "serve";
  if (cat == "net") return "net";
  return "other";
}

// Numeric value of the span arg `key`, or 0 when absent.
double ArgNumber(const TraceEvent& event, std::string_view key) {
  for (const auto& arg : event.args) {
    if (arg.key == key) return std::strtod(arg.value.c_str(), nullptr);
  }
  return 0;
}

}  // namespace

std::vector<double> SelfTimesUs(const std::vector<TraceEvent>& events,
                                bool per_track) {
  std::vector<double> self(events.size(), 0);
  std::map<uint64_t, std::vector<size_t>> timelines;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase != 'X') continue;
    timelines[per_track ? events[i].track : 0].push_back(i);
  }
  std::vector<std::vector<std::pair<double, double>>> children(events.size());
  for (auto& [key, order] : timelines) {
    // Parents before children: earlier start first, longer span first.
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (events[a].ts_us != events[b].ts_us) {
        return events[a].ts_us < events[b].ts_us;
      }
      return events[a].dur_us > events[b].dur_us;
    });
    std::vector<size_t> open;
    for (size_t i : order) {
      const TraceEvent& e = events[i];
      std::erase_if(open, [&](size_t j) { return End(events[j]) <= e.ts_us; });
      // The innermost open span that wholly contains this one is its
      // parent; a span that only overlaps (a retroactive queue-wait span)
      // has none.
      for (auto it = open.rbegin(); it != open.rend(); ++it) {
        if (End(e) <= End(events[*it])) {
          children[*it].emplace_back(e.ts_us, End(e));
          break;
        }
      }
      open.push_back(i);
    }
  }
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase != 'X') continue;
    self[i] = events[i].dur_us - CoveredUs(std::move(children[i]),
                                           events[i].ts_us, End(events[i]));
  }
  return self;
}

void TraceDigest::Add(const std::vector<TraceEvent>& events, bool per_track) {
  const std::vector<double> self = SelfTimesUs(events, per_track);
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.phase != 'X') continue;
    const double self_ms = self[i] / 1e3;
    const std::string_view layer = LayerOf(e);
    auto it = self_ms_by_layer.find(layer);
    if (it == self_ms_by_layer.end()) {
      it = self_ms_by_layer.emplace(std::string(layer), 0.0).first;
    }
    it->second += self_ms;
    if (e.category == "bench") {
      bench_total_ms[e.name] += e.dur_us / 1e3;
    } else if (e.category == "kernel") {
      kernel_spans += 1;
      kernel_host_ms += e.dur_us / 1e3;
      kernel_modeled_ms += ArgNumber(e, "modeled_ms");
      warp_inst += ArgNumber(e, "warp_inst_issued");
    } else if (e.category == "memcpy") {
      memcpy_host_ms += e.dur_us / 1e3;
      if (e.name == "memcpy_h2d") h2d_bytes += ArgNumber(e, "bytes");
    }
    if (e.category == "phase") phase_spans += 1;
    if (layer == "engine") engine_self_ms += self_ms;
  }
}

double TraceDigest::BenchTotalMs(const std::string& name) const {
  auto it = bench_total_ms.find(name);
  return it == bench_total_ms.end() ? 0.0 : it->second;
}

double TraceDigest::LayerSelfMs(const std::string& layer) const {
  auto it = self_ms_by_layer.find(layer);
  return it == self_ms_by_layer.end() ? 0.0 : it->second;
}

}  // namespace perfbench

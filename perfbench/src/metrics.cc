#include "metrics.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"host_s", "s"},
      {"modeled_ms", "ms"},      {"jobs_per_s", "1/s"},
      {"job_p50_ms", "ms"},      {"job_p99_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"graph.generate_ms", "ms"},
      {"graph.csr_build_ms", "ms"},
      {"core.stage_host_ms", "ms"},
      {"core.h2d_bytes", "bytes"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_lookups", "count"},
      {"serve.cache_evictions", "count"},
      {"serve.stale_invalidated", "count"},
      {"engine.rounds", "count"},
      {"engine.launches", "count"},
      {"engine.self_ms", "ms"},
      {"vgpu.kernel_host_ms", "ms"},
      {"vgpu.warp_inst", "count"},
      {"vgpu.warps_launched", "count"},
      {"vgpu.host_ns_per_warp_inst", "ns"},
      {"vgpu.host_per_modeled", "ratio"},
      {"vgpu.global_transactions", "count"},
      {"vgpu.l2_hit_ratio", "ratio"},
      {"vgpu.l2_accesses", "count"},
      {"part.host_ms", "ms"},
      {"part.exchange_bytes", "bytes"},
      {"part.exchange_rounds", "count"},
      {"ooc.host_ms", "ms"},
      {"ooc.staged_bytes", "bytes"},
      {"ooc.shards", "count"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_p99", "ms"},
      {"serve.exec_ms_p50", "ms"},
      {"serve.exec_ms_p99", "ms"},
      {"serve.worker_busy_frac", "ratio"},
      {"net.overhead_ms_p50", "ms"},
      {"net.overhead_ms_p99", "ms"},
      {"net.polls_per_job", "count"},
      {"net.mutate_p50_ms", "ms"},
      {"net.mutate_p99_ms", "ms"},
      {"loadgen.late_p99_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
      {"trace.dropped_spans", "count"},
  };
  return specs;
}

MetricMap Complete(const std::vector<MetricSpec>& specs,
                   const MetricMap& values, std::vector<std::string>* unknown) {
  MetricMap out;
  for (const MetricSpec& spec : specs) {
    auto it = values.find(spec.name);
    out[spec.name] = {it == values.end() ? 0.0 : it->second.value, spec.unit};
  }
  for (const auto& [name, metric] : values) {
    if (!out.count(name)) unknown->push_back(name);
  }
  return out;
}

void Put(MetricMap* map, const std::string& name, double value) {
  for (const auto* specs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *specs) {
      if (spec.name == name) {
        (*map)[name] = {value, spec.unit};
        return;
      }
    }
  }
  (*map)[name] = {value, "?"};  // surfaced as unknown by Complete()
}

}  // namespace perfbench

#include "grid.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <tuple>
#include <utility>

#include "core/api.h"
#include "core/host_ref.h"
#include "graph/datasets.h"
#include "graph/generate.h"
#include "metrics.h"
#include "ooc/streamed.h"
#include "part/engine.h"
#include "part/partition.h"
#include "part/run.h"
#include "serve/job.h"
#include "spans.h"
#include "stats.h"
#include "trace/trace.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"
#include "vgpu/interconnect.h"

namespace perfbench {
namespace {

namespace core = adgraph::core;
namespace graph = adgraph::graph;
namespace vgpu = adgraph::vgpu;
using adgraph::Result;
using adgraph::Status;

/// Exact counts of one pass; every pass of one seed must repeat them.
struct Counts {
  double modeled_ms = 0;
  uint64_t launches = 0;
  uint64_t warp_inst = 0;
  uint64_t warps = 0;
  uint64_t global_tx = 0;
  uint64_t l2_hits = 0;
  uint64_t l2_misses = 0;
  uint64_t exchange_bytes = 0;
  uint64_t exchange_rounds = 0;
  uint64_t ooc_staged_bytes = 0;
  uint64_t ooc_shards = 0;
  /// Gang PageRank ranks that are not bit-identical to the resident run.
  uint64_t inexact_ranks = 0;

  bool operator==(const Counts&) const = default;

  void Add(const Counts& o) {
    modeled_ms += o.modeled_ms;
    launches += o.launches;
    warp_inst += o.warp_inst;
    warps += o.warps;
    global_tx += o.global_tx;
    l2_hits += o.l2_hits;
    l2_misses += o.l2_misses;
    exchange_bytes += o.exchange_bytes;
    exchange_rounds += o.exchange_rounds;
    ooc_staged_bytes += o.ooc_staged_bytes;
    ooc_shards += o.ooc_shards;
    inexact_ranks += o.inexact_ranks;
  }

  void AddKernels(const vgpu::Device& device) {
    for (const vgpu::KernelStats& k : device.kernel_log()) {
      launches += 1;
      warp_inst += k.counters.warp_inst_issued;
      warps += k.counters.warps_launched;
      global_tx += k.counters.global_ld_transactions +
                   k.counters.global_st_transactions;
      l2_hits += k.counters.l2_hits;
      l2_misses += k.counters.l2_misses;
    }
  }
};

/// One grid cell: runs its operation on fresh devices and checks the
/// output against a reference computed before the timed phase.  `host_ms`
/// times only the program's work — device creation and the run call — and
/// not the counting or the check.  An empty `error` means the output
/// matched.
struct CellOutcome {
  Counts counts;
  double host_ms = 0;
  std::string error;
};

struct Cell {
  std::string label;
  std::function<CellOutcome()> run;
};

struct PassStats {
  std::vector<double> cell_ms;
  size_t passes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::optional<Counts> per_pass;
  std::vector<std::string> errors;
};

void NoteError(PassStats* stats, std::string error) {
  stats->failed += 1;
  if (stats->errors.size() < 8) stats->errors.push_back(std::move(error));
}

/// Runs whole passes over `cells` until `window_s` has elapsed and at
/// least `min_passes` have run.  With a digest, each pass runs under its
/// own trace collector and is folded into the digest after its time is
/// taken.
void RunPasses(const std::vector<Cell>& cells, double window_s,
               size_t min_passes, TraceDigest* digest, uint64_t* dropped,
               PassStats* stats) {
  const Clock::time_point window_start = Clock::now();
  do {
    std::optional<adgraph::trace::Collector> collector;
    if (digest != nullptr) collector.emplace(kCollectorCapacity);
    Counts pass;
    for (const Cell& cell : cells) {
      CellOutcome out = cell.run();
      stats->cell_ms.push_back(out.host_ms);
      stats->attempted += 1;
      if (!out.error.empty()) NoteError(stats, cell.label + ": " + out.error);
      pass.Add(out.counts);
    }
    stats->passes += 1;
    if (!stats->per_pass) {
      stats->per_pass = pass;
    } else if (!(pass == *stats->per_pass)) {
      NoteError(stats, "pass " + std::to_string(stats->passes) +
                           ": modeled time or counts differ from pass 1");
    }
    if (collector) {
      digest->Add(collector->Events(), /*per_track=*/false);
      *dropped += collector->dropped();
    }
  } while (stats->passes < min_passes ||
           MsSince(window_start) / 1e3 < window_s);
}

graph::CsrBuildOptions SymmetricBuild() {
  graph::CsrBuildOptions sym;
  sym.make_undirected = true;
  sym.remove_duplicates = true;
  sym.remove_self_loops = true;
  return sym;
}

/// A Table 4 proxy and the host variants the grid runs on.
struct Proxy {
  graph::DatasetSpec spec;
  std::shared_ptr<const graph::CsrGraph> symmetric;
  std::shared_ptr<const graph::CsrGraph> weighted;
};

Result<Proxy> BuildProxy(const graph::DatasetSpec& spec, double extra_divisor,
                         bool weighted, uint64_t track) {
  Proxy proxy;
  proxy.spec = spec;
  graph::CsrGraph directed;
  {
    auto span = CallSpan(track, "graph.generate");
    ADGRAPH_ASSIGN_OR_RETURN(directed, graph::Materialize(spec, extra_divisor));
  }
  {
    auto span = CallSpan(track, "graph.csr_build");
    ADGRAPH_ASSIGN_OR_RETURN(
        graph::CsrGraph sym,
        graph::CsrGraph::FromCoo(directed.ToCoo(), SymmetricBuild()));
    proxy.symmetric = std::make_shared<const graph::CsrGraph>(std::move(sym));
  }
  if (weighted) {
    auto span = CallSpan(track, "graph.csr_build");
    graph::CooGraph coo = directed.ToCoo();
    graph::AttachRandomWeights(&coo, 0.0, 1.0, spec.recipe.seed + 1000);
    ADGRAPH_ASSIGN_OR_RETURN(graph::CsrGraph w, graph::CsrGraph::FromCoo(coo));
    proxy.weighted = std::make_shared<const graph::CsrGraph>(std::move(w));
  }
  return proxy;
}

using EdgeSet = std::vector<std::tuple<graph::vid_t, graph::vid_t, double>>;

EdgeSet CanonicalEdges(const graph::CsrGraph& g) {
  EdgeSet edges;
  for (graph::vid_t u = 0; u < g.num_vertices(); ++u) {
    auto adj = g.neighbors(u);
    for (size_t i = 0; i < adj.size(); ++i) {
      edges.emplace_back(u, adj[i],
                         g.has_weights() ? g.edge_weights(u)[i] : 1.0);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Each cell's median host time over the passes in `stats`.  On a shared
/// host the machine runs fast and slow for seconds at a time, so a cell's
/// fastest pass depends on whether the run caught a fast stretch.  Over
/// 30-second windows of long runs on a shared 4-vCPU host, the sum of
/// per-cell fastest passes spread 0.13-0.30 (interquartile range over
/// median) and the sum of per-cell medians 0.09-0.16.
std::vector<double> MedianPerCell(const PassStats& stats) {
  const size_t passes = stats.passes;
  if (passes == 0) return {};
  const size_t n = stats.cell_ms.size() / passes;
  std::vector<double> median(n);
  std::vector<double> samples(passes);
  for (size_t c = 0; c < n; ++c) {
    for (size_t p = 0; p < passes; ++p) samples[p] = stats.cell_ms[p * n + c];
    median[c] = Median(samples);
  }
  return median;
}

/// Fills the result of a grid workload from its untraced and traced passes.
void Report(const std::string& workload, const RunOptions& options,
            const std::vector<double>& setup_s, const PassStats& untraced,
            const PassStats& traced, const TraceDigest& digest,
            const TraceDigest& setup_digest, uint64_t dropped,
            WorkloadResult* result) {
  result->attempted = untraced.attempted + traced.attempted;
  result->failed = untraced.failed + traced.failed;
  for (const PassStats* stats : {&untraced, &traced}) {
    for (const std::string& e : stats->errors) {
      result->notes.push_back(workload + ": MISMATCH " + e);
    }
  }
  if (traced.per_pass && untraced.per_pass &&
      !(*traced.per_pass == *untraced.per_pass)) {
    result->failed += 1;
    result->notes.push_back(workload + ": MISMATCH traced pass counts differ");
  }
  const Counts counts = untraced.per_pass.value_or(Counts{});
  if (counts.inexact_ranks > 0) {
    result->notes.push_back(
        workload +
        ": DEFECT gang PageRank is not bit-identical to the resident run: " +
        std::to_string(counts.inexact_ranks) +
        " ranks per pass differ in their last bits (all within 1e-10)");
  }
  const std::vector<double> cell_ms = MedianPerCell(untraced);
  double pass_ms = 0;
  for (double ms : cell_ms) pass_ms += ms;
  const double host_s = pass_ms / 1e3;
  const Summary cells = Summarize(cell_ms);

  MetricMap& e2e = result->end_to_end;
  Put(&e2e, "setup_s", Median(setup_s));
  Put(&e2e, "host_s", host_s);
  Put(&e2e, "modeled_ms", counts.modeled_ms);
  Put(&e2e, "jobs_per_s", static_cast<double>(cell_ms.size()) / host_s);
  Put(&e2e, "job_p50_ms", cells.p50);
  Put(&e2e, "job_p99_ms", cells.p99);
  Put(&e2e, "peak_rss_mb", PeakRssMb());
  result->notes.push_back(
      workload + ": " + std::to_string(cell_ms.size()) + " cells a pass, " +
      std::to_string(untraced.passes) +
      " untraced passes; each cell's latency is its median pass; n=" +
      std::to_string(cells.n) + " cells" +
      (cells.tail_p ? ", reportable tail p" + Fixed(100 * *cells.tail_p, 1) +
                          " = " + Fixed(cells.tail) + " ms"
                    : ", too few for a tail with 10 beyond: job_p99_ms is "
                      "the slowest cell"));

  if (!options.trace) return;
  const double passes =
      static_cast<double>(std::max<size_t>(traced.passes, 1));
  MetricMap& pl = result->per_layer;
  Put(&pl, "graph.generate_ms", setup_digest.BenchTotalMs("graph.generate"));
  Put(&pl, "graph.csr_build_ms",
      setup_digest.BenchTotalMs("graph.csr_build"));
  Put(&pl, "core.stage_host_ms", digest.memcpy_host_ms / passes);
  Put(&pl, "core.h2d_bytes", digest.h2d_bytes / passes);
  Put(&pl, "engine.rounds", static_cast<double>(digest.phase_spans) / passes);
  Put(&pl, "engine.launches", static_cast<double>(counts.launches));
  Put(&pl, "engine.self_ms", digest.engine_self_ms / passes);
  const double kernel_host_ms = digest.kernel_host_ms / passes;
  Put(&pl, "vgpu.kernel_host_ms", kernel_host_ms);
  Put(&pl, "vgpu.warp_inst", static_cast<double>(counts.warp_inst));
  Put(&pl, "vgpu.warps_launched", static_cast<double>(counts.warps));
  Put(&pl, "vgpu.host_ns_per_warp_inst",
      counts.warp_inst ? kernel_host_ms * 1e6 / counts.warp_inst : 0);
  Put(&pl, "vgpu.host_per_modeled",
      digest.kernel_modeled_ms > 0
          ? digest.kernel_host_ms / digest.kernel_modeled_ms
          : 0);
  Put(&pl, "vgpu.global_transactions", static_cast<double>(counts.global_tx));
  const uint64_t l2 = counts.l2_hits + counts.l2_misses;
  Put(&pl, "vgpu.l2_hit_ratio",
      l2 ? static_cast<double>(counts.l2_hits) / l2 : 0);
  Put(&pl, "vgpu.l2_accesses", static_cast<double>(l2));
  Put(&pl, "part.host_ms", digest.LayerSelfMs("part") / passes);
  Put(&pl, "part.exchange_bytes", static_cast<double>(counts.exchange_bytes));
  Put(&pl, "part.exchange_rounds", static_cast<double>(counts.exchange_rounds));
  Put(&pl, "ooc.host_ms", digest.LayerSelfMs("ooc") / passes);
  Put(&pl, "ooc.staged_bytes", static_cast<double>(counts.ooc_staged_bytes));
  Put(&pl, "ooc.shards", static_cast<double>(counts.ooc_shards));
  double traced_ms = 0;
  for (double ms : MedianPerCell(traced)) traced_ms += ms;
  Put(&pl, "trace.overhead_frac", traced_ms / pass_ms - 1.0);
  Put(&pl, "trace.dropped_spans", static_cast<double>(dropped));
  if (dropped > 0) {
    // A traced run that lost spans has incomplete per-layer figures.
    result->attempted += 1;
    result->failed += 1;
    result->notes.push_back(workload +
                            ": FAILED the trace collector dropped spans");
  }
  result->notes.push_back(
      workload + ": traced " + std::to_string(traced.passes) +
      " passes, host_s " + Fixed(traced_ms / 1e3) + " traced vs " +
      Fixed(host_s) + " untraced; dropped spans " + std::to_string(dropped));
}

/// Runs a grid workload's cells through its untraced and traced windows.
WorkloadResult RunGrid(const std::string& workload, const RunOptions& options,
                       const std::vector<double>& setup_s,
                       const TraceDigest& setup_digest,
                       const std::vector<Cell>& cells) {
  WorkloadResult result;
  const Windows windows = SplitWindows(options);
  PassStats untraced;
  PassStats traced;
  TraceDigest digest;
  uint64_t dropped = 0;
  // The end-to-end figures take each cell's median of at least three
  // untraced passes, so that one pass slowed by the host cannot set it.
  RunPasses(cells, windows.untraced_s, 3, nullptr, nullptr, &untraced);
  if (options.trace) {
    RunPasses(cells, windows.traced_s, 1, &digest, &dropped, &traced);
  }
  Report(workload, options, setup_s, untraced, traced, digest, setup_digest,
         dropped, &result);
  return result;
}

/// Partitioned PageRank adds rank contributions in another order than the
/// resident run, so ranks may differ in their last bits.  Its documented
/// contract (part_test) is an equal iteration count and ranks within 1e-10;
/// bitwise differences are counted, not failed, and reported per run.
std::string CheckReassociated(const core::PageRankResult& got,
                              const core::PageRankResult& want,
                              uint64_t* inexact) {
  if (got.iterations != want.iterations ||
      got.ranks.size() != want.ranks.size()) {
    return "gang PageRank iterations or size differ from the resident run";
  }
  for (size_t v = 0; v < got.ranks.size(); ++v) {
    if (got.ranks[v] == want.ranks[v]) continue;
    *inexact += 1;
    if (std::abs(got.ranks[v] - want.ranks[v]) > 1e-10) {
      return "gang PageRank rank beyond the 1e-10 re-association bound";
    }
  }
  return "";
}

using Check = std::function<std::string(const core::AlgoResult&)>;

/// One resident cell: a fresh device, one core::Run, the output check.
CellOutcome RunResident(const vgpu::ArchConfig& arch,
                        vgpu::Device::Options device_options, core::Algo algo,
                        const graph::CsrGraph& g, const core::Params& params,
                        const Check& check, uint64_t track) {
  const Clock::time_point t0 = Clock::now();
  vgpu::Device device(arch, device_options);
  Result<core::AlgoResult> r = [&] {
    auto span = CallSpan(track, "core.run");
    return core::Run(&device, core::AlgoSpec{algo}, g, params);
  }();
  CellOutcome out;
  out.host_ms = MsSince(t0);
  if (!r.ok()) return {{}, out.host_ms, r.status().ToString()};
  out.counts.modeled_ms = core::ResultTimeMs(*r);
  out.counts.AddKernels(device);
  out.error = check(*r);
  return out;
}

/// One gang cell: `devices` A100s joined by PCIe, uniform vertex ranges.
CellOutcome RunGang(const vgpu::ArchConfig& arch, uint32_t devices,
                    core::Algo algo, const graph::CsrGraph& g,
                    const core::Params& params,
                    const core::AlgoResult& resident, const Check& check,
                    uint64_t track) {
  const Clock::time_point t0 = Clock::now();
  adgraph::part::PartitionedEngine::Options options;
  options.num_devices = devices;
  options.interconnect = vgpu::PciePreset();
  auto engine = adgraph::part::PartitionedEngine::Create(arch, options);
  if (!engine.ok()) return {{}, MsSince(t0), engine.status().ToString()};
  auto span = CallSpan(track, "part.run");
  auto plan = adgraph::part::MakePartitionPlan(
      g, devices, adgraph::part::PartitionStrategy::kUniform);
  if (!plan.ok()) return {{}, MsSince(t0), plan.status().ToString()};
  auto r = adgraph::part::RunPartitioned(engine->get(), g, *plan,
                                         core::AlgoSpec{algo}, params);
  span.End();
  CellOutcome out;
  out.host_ms = MsSince(t0);
  if (!r.ok()) return {{}, out.host_ms, r.status().ToString()};
  out.counts.modeled_ms = r->time_ms;
  for (uint32_t i = 0; i < devices; ++i) {
    out.counts.AddKernels(*(*engine)->device(i));
  }
  out.counts.exchange_bytes = r->exchange_bytes;
  out.counts.exchange_rounds = r->exchange_rounds;
  out.error = algo == core::Algo::kPageRank
                  ? CheckReassociated(
                        std::get<core::PageRankResult>(r->payload),
                        std::get<core::PageRankResult>(resident),
                        &out.counts.inexact_ranks)
                  : check(r->payload);
  return out;
}

/// One streamed cell: ooc::RunStreamed with `shard_bytes` per slot, which
/// must cut the graph into at least four shards.
CellOutcome RunStreamedCell(const vgpu::ArchConfig& arch, core::Algo algo,
                            std::shared_ptr<const graph::CsrGraph> g,
                            const core::Params& params, uint64_t shard_bytes,
                            const Check& check, uint64_t track) {
  const Clock::time_point t0 = Clock::now();
  vgpu::Device device(arch);
  adgraph::ooc::OocOptions ooc;
  ooc.shard_bytes = shard_bytes;
  adgraph::ooc::StreamedStats stats;
  auto r = [&] {
    auto span = CallSpan(track, "ooc.run");
    return adgraph::ooc::RunStreamed(&device, algo, std::move(g), params, ooc,
                                     &stats);
  }();
  CellOutcome out;
  out.host_ms = MsSince(t0);
  if (!r.ok()) return {{}, out.host_ms, r.status().ToString()};
  out.counts.modeled_ms = core::ResultTimeMs(*r);
  out.counts.AddKernels(device);
  out.counts.ooc_staged_bytes = stats.staged_bytes;
  out.counts.ooc_shards = stats.num_shards;
  out.error = stats.num_shards < 4
                  ? "streamed in " + std::to_string(stats.num_shards) +
                        " shards, expected >= 4"
                  : check(*r);
  return out;
}

Check SameFingerprint(uint64_t expected) {
  return [expected](const core::AlgoResult& r) {
    return adgraph::serve::FingerprintPayload(r) == expected
               ? std::string()
               : std::string("output differs from the resident core::Run");
  };
}

Check MatchOrSay(bool match, const char* mismatch) {
  return [=](const core::AlgoResult&) {
    return match ? std::string() : std::string(mismatch);
  };
}

}  // namespace

// ---------------------------------------------------------------------------
// paper-grid
// ---------------------------------------------------------------------------

WorkloadResult RunPaperGrid(const RunOptions& options,
                            const PaperGridConfig& config) {
  std::vector<graph::DatasetSpec> specs;
  for (const graph::DatasetSpec& spec : graph::PaperDatasets()) {
    if (spec.name != "twitter-mpi") specs.push_back(spec);
  }
  const uint64_t track = BenchTrack();

  std::vector<double> setup_s;
  TraceDigest setup_digest;
  auto proxies = TimedSetups(
      config.setups, options.trace, /*per_track=*/false, &setup_s,
      &setup_digest, [&]() -> Result<std::vector<Proxy>> {
        std::vector<Proxy> out;
        for (const auto& spec : specs) {
          ADGRAPH_ASSIGN_OR_RETURN(
              Proxy p, BuildProxy(spec, config.extra_divisor, true, track));
          out.push_back(std::move(p));
        }
        return out;
      });
  if (!proxies.ok()) return SetupFailure("paper-grid", proxies.status());

  // Seeded inputs and their references, outside every timed window.
  struct Inputs {
    graph::vid_t source = 0;
    std::vector<uint32_t> levels;
    uint64_t triangles = 0;
    std::vector<graph::vid_t> esbv_vertices;
    EdgeSet esbv_edges;
  };
  auto inputs = std::make_shared<std::vector<Inputs>>(proxies->size());
  for (size_t d = 0; d < proxies->size(); ++d) {
    const Proxy& p = (*proxies)[d];
    std::mt19937_64 rng(options.seed * 1000003 + d);
    Inputs& in = (*inputs)[d];
    in.source = DrawSource(*p.symmetric, &rng);
    in.levels = core::host_ref::BfsLevels(*p.symmetric, in.source);
    in.triangles = core::host_ref::TriangleCount(*p.symmetric);
    in.esbv_vertices =
        core::SelectPseudoCluster(p.weighted->num_vertices(), 0.6, rng());
    in.esbv_edges = CanonicalEdges(
        core::host_ref::ExtractSubgraph(*p.weighted, in.esbv_vertices));
  }

  std::vector<Cell> cells;
  for (size_t d = 0; d < proxies->size(); ++d) {
    const Proxy& p = (*proxies)[d];
    const Inputs* in = &(*inputs)[d];
    // Device RAM shrinks with the proxy, as in the paper benches.
    vgpu::Device::Options memory;
    memory.memory_scale = p.spec.scale_divisor * config.extra_divisor;
    core::BfsOptions bfs;
    bfs.source = in->source;
    bfs.assume_symmetric = true;
    core::TcOptions tc;
    tc.orient = false;        // nvGRAPH-style full-adjacency counting
    tc.hash_capacity = 2048;  // as the Table 5 bench configures it
    tc.vertex_sample = 1;     // exact
    core::EsbvOptions esbv;
    esbv.vertices = in->esbv_vertices;
    const Check bfs_check = [in](const core::AlgoResult& r) {
      return MatchOrSay(std::get<core::BfsResult>(r).levels == in->levels,
                        "BFS levels differ from host_ref")(r);
    };
    const Check tc_check = [in](const core::AlgoResult& r) {
      const auto& t = std::get<core::TcResult>(r);
      return MatchOrSay(t.triangles == in->triangles && !t.sampled,
                        "TC count differs from host_ref")(r);
    };
    const Check esbv_check = [in](const core::AlgoResult& r) {
      const auto& sub = std::get<core::EsbvResult>(r).subgraph;
      return MatchOrSay(CanonicalEdges(sub) == in->esbv_edges,
                        "ESBV edge set differs from host_ref")(r);
    };
    for (const vgpu::ArchConfig* arch :
         {&vgpu::A100Config(), &vgpu::Z100LConfig()}) {
      const std::string where = "/" + p.spec.name + "/" + arch->name;
      auto sym = p.symmetric;
      auto weighted = p.weighted;
      cells.push_back({"BFS" + where, [=] {
                         return RunResident(*arch, memory, core::Algo::kBfs,
                                            *sym, bfs, bfs_check, track);
                       }});
      cells.push_back({"TC" + where, [=] {
                         return RunResident(*arch, memory,
                                            core::Algo::kTriangleCount, *sym,
                                            tc, tc_check, track);
                       }});
      cells.push_back({"ESBV" + where, [=] {
                         return RunResident(*arch, memory, core::Algo::kEsbv,
                                            *weighted, esbv, esbv_check, track);
                       }});
    }
  }
  return RunGrid("paper-grid", options, setup_s, setup_digest, cells);
}

// ---------------------------------------------------------------------------
// engine-placements
// ---------------------------------------------------------------------------

WorkloadResult RunEnginePlacements(const RunOptions& options,
                                   const PlacementsConfig& config) {
  const uint64_t track = BenchTrack();
  struct Graphs {
    std::vector<Proxy> proxies;
    std::shared_ptr<const graph::CsrGraph> lattice;
  };
  std::vector<double> setup_s;
  TraceDigest setup_digest;
  auto graphs = TimedSetups(
      config.setups, options.trace, /*per_track=*/false, &setup_s,
      &setup_digest, [&]() -> Result<Graphs> {
        Graphs out;
        for (const char* name : {"cit-Patents", "soc-liveJournal1"}) {
          ADGRAPH_ASSIGN_OR_RETURN(graph::DatasetSpec spec,
                                   graph::FindDataset(name));
          ADGRAPH_ASSIGN_OR_RETURN(
              Proxy p, BuildProxy(spec, config.extra_divisor, false, track));
          out.proxies.push_back(std::move(p));
        }
        // A ring of degree 4 with 0.2% of its edges rewired: few shortcuts,
        // so traversals take hundreds of rounds.
        graph::CooGraph coo;
        {
          auto span = CallSpan(track, "graph.generate");
          ADGRAPH_ASSIGN_OR_RETURN(
              coo, graph::GenerateWattsStrogatz(config.lattice_vertices, 4,
                                                0.002, 11));
          graph::AttachRandomWeights(&coo, 1.0, 2.0, 12);
        }
        auto span = CallSpan(track, "graph.csr_build");
        graph::CsrBuildOptions build;
        build.remove_duplicates = true;
        ADGRAPH_ASSIGN_OR_RETURN(graph::CsrGraph lattice,
                                 graph::CsrGraph::FromCoo(coo, build));
        out.lattice =
            std::make_shared<const graph::CsrGraph>(std::move(lattice));
        return out;
      });
  if (!graphs.ok()) return SetupFailure("engine-placements", graphs.status());

  const vgpu::ArchConfig& arch = vgpu::A100Config();
  std::vector<Cell> cells;
  for (size_t d = 0; d < graphs->proxies.size(); ++d) {
    const Proxy& p = graphs->proxies[d];
    std::shared_ptr<const graph::CsrGraph> g = p.symmetric;
    std::mt19937_64 rng(options.seed * 1000003 + d);
    core::BfsOptions bfs;
    bfs.source = DrawSource(*g, &rng);
    bfs.assume_symmetric = true;

    for (auto [algo, params] :
         {std::pair<core::Algo, core::Params>{core::Algo::kBfs, bfs},
          {core::Algo::kPageRank, core::PageRankOptions{}}}) {
      const std::string name =
          std::string(core::AlgorithmName(algo)) + "/" + p.spec.name;
      // The resident run is the other placements' reference; it is itself
      // checked against host_ref, all before the timed phase.
      vgpu::Device device(arch);
      auto resident = core::Run(&device, core::AlgoSpec{algo}, *g, params);
      if (!resident.ok()) {
        return SetupFailure("engine-placements", resident.status());
      }
      bool matches_host = true;
      if (algo == core::Algo::kBfs) {
        matches_host = std::get<core::BfsResult>(*resident).levels ==
                       core::host_ref::BfsLevels(*g, bfs.source);
      } else {
        const auto& pr = std::get<core::PageRankResult>(*resident);
        const auto expected = core::host_ref::PageRank(
            *g, core::PageRankOptions{}.alpha, pr.iterations);
        for (size_t v = 0; v < expected.size(); ++v) {
          matches_host &= std::abs(expected[v] - pr.ranks[v]) <= 1e-8;
        }
      }
      if (!matches_host) {
        return SetupFailure("engine-placements",
                            Status::Internal(name + ": resident run differs "
                                                    "from host_ref"));
      }
      const Check check =
          SameFingerprint(adgraph::serve::FingerprintPayload(*resident));
      const core::AlgoResult reference = *resident;

      cells.push_back({name + "/resident", [=, &arch] {
                         return RunResident(arch, {}, algo, *g, params, check,
                                            track);
                       }});
      for (uint32_t devices : {2u, 4u}) {
        cells.push_back({name + "/gang" + std::to_string(devices),
                         [=, &arch] {
                           return RunGang(arch, devices, algo, *g, params,
                                          reference, check, track);
                         }});
      }
      // A slot budget of a sixth of the graph's footprint: at least four
      // shards, whichever operand the algorithm streams.
      const uint64_t footprint =
          (g->num_vertices() + 1) * sizeof(graph::eid_t) +
          g->num_edges() * sizeof(graph::vid_t);
      cells.push_back({name + "/streamed", [=, &arch] {
                         return RunStreamedCell(arch, algo, g, params,
                                                footprint / 6, check, track);
                       }});
    }
  }

  // Many-round resident runs on the lattice.  SSSP runs from four seeded
  // sources in one cell: one source's rounds hinge on its distance to the
  // few rewired shortcuts, four of them much less.
  std::shared_ptr<const graph::CsrGraph> lattice = graphs->lattice;
  std::mt19937_64 rng(options.seed * 1000003 + 99);
  std::vector<core::SsspOptions> sources(4);
  std::vector<Check> sssp_checks;
  for (core::SsspOptions& sssp : sources) {
    sssp.source =
        static_cast<graph::vid_t>(rng() % lattice->num_vertices());
    auto distances = std::make_shared<const std::vector<double>>(
        core::host_ref::Sssp(*lattice, sssp.source));
    sssp_checks.push_back([distances](const core::AlgoResult& r) {
      const auto& got = std::get<core::SsspResult>(r).distances;
      for (size_t v = 0; v < distances->size(); ++v) {
        if (std::abs(got[v] - (*distances)[v]) > 1e-9) {
          return std::string("SSSP distances differ from host_ref");
        }
      }
      return std::string();
    });
  }
  cells.push_back({"sssp/lattice/resident x4", [=, &arch] {
                     CellOutcome out;
                     for (size_t i = 0; i < sources.size(); ++i) {
                       CellOutcome one =
                           RunResident(arch, {}, core::Algo::kSssp, *lattice,
                                       sources[i], sssp_checks[i], track);
                       out.counts.Add(one.counts);
                       out.host_ms += one.host_ms;
                       if (out.error.empty()) out.error = one.error;
                     }
                     return out;
                   }});
  auto labels = std::make_shared<const std::vector<graph::vid_t>>(
      core::host_ref::ConnectedComponents(*lattice));
  const Check cc_check = [labels](const core::AlgoResult& r) {
    return MatchOrSay(std::get<core::CcResult>(r).labels == *labels,
                      "CC labels differ from host_ref")(r);
  };
  cells.push_back({"cc/lattice/resident", [=, &arch] {
                     return RunResident(
                         arch, {}, core::Algo::kConnectedComponents, *lattice,
                         core::CcOptions{}, cc_check, track);
                   }});
  return RunGrid("engine-placements", options, setup_s, setup_digest, cells);
}

}  // namespace perfbench

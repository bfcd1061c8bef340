#include "serve_load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/api.h"
#include "graph/delta.h"
#include "graph/generate.h"
#include "metrics.h"
#include "net/client.h"
#include "net/json.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/job.h"
#include "serve/scheduler.h"
#include "spans.h"
#include "stats.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace perfbench {
namespace {

namespace core = adgraph::core;
namespace graph = adgraph::graph;
namespace net = adgraph::net;
namespace serve = adgraph::serve;
namespace vgpu = adgraph::vgpu;
using adgraph::Result;
using adgraph::Status;

/// The fixed operation list of a serve workload is this many reads long; a
/// "pass" of host_s, modeled_ms and the per-layer counts is one such list.
constexpr size_t kPassJobs = 200;
constexpr double kCallTimeoutMs = 30000;
/// The end-to-end figures are medians over equal slices of the untraced
/// window, each at least this long and holding at least 1000 reads, so
/// that a slice's p99 has 10 reads beyond it.
constexpr double kSliceSeconds = 5;
constexpr size_t kSliceReads = 1000;
/// Set-ups per run: a serve set-up takes tens of milliseconds, so its
/// median needs many of them.
constexpr int kSetups = 15;

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Graphs
// ---------------------------------------------------------------------------

struct NamedGraph {
  std::string name;
  std::shared_ptr<const graph::CsrGraph> g;
};

/// Sorted, deduplicated, self-loop-free: the normal form the server needs
/// to accept mutations of a graph.
Result<std::shared_ptr<const graph::CsrGraph>> Normalize(
    const graph::CooGraph& coo, uint64_t track) {
  auto span = CallSpan(track, "graph.csr_build");
  graph::CsrBuildOptions options;
  options.sort_neighbors = true;
  options.remove_duplicates = true;
  options.remove_self_loops = true;
  ADGRAPH_ASSIGN_OR_RETURN(graph::CsrGraph g,
                           graph::CsrGraph::FromCoo(coo, options));
  return std::make_shared<const graph::CsrGraph>(std::move(g));
}

/// Six weighted graphs of 1024 vertices and mixed shape, fixed recipes: two
/// skewed R-MATs, a uniform random graph, a small world, a preferential-
/// attachment graph and a near-ring with a long diameter.
Result<std::vector<NamedGraph>> BuildReadGraphs(uint64_t track) {
  constexpr graph::vid_t n = 1024;
  const std::vector<
      std::pair<std::string, std::function<Result<graph::CooGraph>()>>>
      recipes = {
          {"rmat-social",
           [] {
             return graph::GenerateRmat(
                 {.scale = 10, .edge_factor = 8, .seed = 21});
           }},
          {"rmat-web",
           [] {
             return graph::GenerateRmat({.scale = 10,
                                         .edge_factor = 16,
                                         .a = 0.45,
                                         .b = 0.25,
                                         .c = 0.25,
                                         .d = 0.05,
                                         .seed = 22,
                                         .permute_vertices = false});
           }},
          {"erdos-renyi",
           [] { return graph::GenerateErdosRenyi(n, 8 * n, 23); }},
          {"small-world",
           [] { return graph::GenerateWattsStrogatz(n, 8, 0.1, 24); }},
          {"pref-attach",
           [] { return graph::GenerateBarabasiAlbert(n, 4, 25); }},
          {"near-ring",
           [] { return graph::GenerateWattsStrogatz(n, 4, 0.01, 26); }},
      };
  std::vector<NamedGraph> out;
  for (size_t i = 0; i < recipes.size(); ++i) {
    graph::CooGraph coo;
    {
      auto span = CallSpan(track, "graph.generate");
      ADGRAPH_ASSIGN_OR_RETURN(coo, recipes[i].second());
      graph::AttachRandomWeights(&coo, 1.0, 2.0, 30 + i);
    }
    ADGRAPH_ASSIGN_OR_RETURN(auto g, Normalize(coo, track));
    out.push_back({recipes[i].first, std::move(g)});
  }
  return out;
}

/// The mutable graph of serve-mutate: an unweighted scale-10 R-MAT.
Result<std::vector<NamedGraph>> BuildLiveGraph(uint64_t track) {
  graph::CooGraph coo;
  {
    auto span = CallSpan(track, "graph.generate");
    ADGRAPH_ASSIGN_OR_RETURN(
        coo, graph::GenerateRmat({.scale = 10, .edge_factor = 8, .seed = 41}));
  }
  ADGRAPH_ASSIGN_OR_RETURN(auto g, Normalize(coo, track));
  return std::vector<NamedGraph>{{"live", std::move(g)}};
}

/// `total` split over `n` ranks in Zipf(1) proportion (largest remainder).
std::vector<size_t> ZipfShares(size_t n, size_t total) {
  double norm = 0;
  for (size_t i = 0; i < n; ++i) norm += 1.0 / static_cast<double>(i + 1);
  std::vector<size_t> shares(n);
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    const double exact =
        static_cast<double>(total) / (norm * static_cast<double>(i + 1));
    shares[i] = static_cast<size_t>(exact);
    assigned += shares[i];
    remainders.emplace_back(exact - static_cast<double>(shares[i]), i);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (size_t k = 0; assigned < total; ++k, ++assigned) {
    shares[remainders[k].second] += 1;
  }
  return shares;
}

/// Device bytes of a graph staged whole (rows, columns, weights).
uint64_t GraphBytes(const graph::CsrGraph& g) {
  return (g.num_vertices() + 1) * sizeof(graph::eid_t) +
         g.num_edges() * (sizeof(graph::vid_t) + sizeof(graph::weight_t));
}

// ---------------------------------------------------------------------------
// The service: in-process scheduler + TCP front door
// ---------------------------------------------------------------------------

struct Service {
  std::unique_ptr<serve::Scheduler> scheduler;
  std::unique_ptr<net::Server> server;  // declared last: shuts down first
};

/// Two A100 workers, one handler shard, no occupancy floor; each worker's
/// residency cache holds `cache_bytes`.
Result<Service> StartService(const std::vector<NamedGraph>& graphs,
                             uint64_t cache_bytes) {
  serve::Scheduler::Options options;
  for (int i = 0; i < 2; ++i) {
    serve::Scheduler::DeviceSlot slot;
    slot.arch = &vgpu::A100Config();
    options.devices.push_back(slot);
  }
  options.device_occupancy_floor_ms = 0;
  options.cache.capacity_bytes = cache_bytes;
  Service service;
  ADGRAPH_ASSIGN_OR_RETURN(service.scheduler,
                           serve::Scheduler::Create(options));
  net::Server::GraphMap map;
  for (const NamedGraph& g : graphs) map[g.name] = g.g;
  net::ServerOptions server_options;
  server_options.handler_threads = 1;
  ADGRAPH_ASSIGN_OR_RETURN(
      service.server, net::Server::Start(service.scheduler.get(),
                                         std::move(map), server_options));
  return service;
}

Result<net::Client> Connect(const Service& service,
                            const std::string& tenant) {
  ADGRAPH_ASSIGN_OR_RETURN(
      net::Client client,
      net::Client::Connect("127.0.0.1", service.server->port()));
  ADGRAPH_RETURN_NOT_OK(client.Hello(tenant).status());
  return client;
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

/// One query of a workload's fixed list.
struct Query {
  std::string graph;
  core::Algo algo = core::Algo::kBfs;
  graph::vid_t source = 0;
  bool incremental = false;
  /// PageRank iteration budget; 0 = the server's default (to tolerance).
  uint32_t pagerank_iters = 0;
  /// Fingerprint of a direct core::Run on a fresh device (serve-read).
  uint64_t expected = 0;
};

net::Json ParamsJson(const Query& q) {
  net::Json params = net::Json::MakeObject();
  if (q.algo == core::Algo::kBfs || q.algo == core::Algo::kSssp ||
      q.algo == core::Algo::kBetweenness) {
    params.Set("source", static_cast<uint64_t>(q.source));
  }
  if (q.algo == core::Algo::kPageRank && q.pagerank_iters > 0) {
    params.Set("iters", static_cast<uint64_t>(q.pagerank_iters));
  }
  return params;
}

/// The reference: the same params the server builds from the request, run
/// by core::Run on a fresh A100.
Result<uint64_t> DirectFingerprint(const Query& q, const graph::CsrGraph& g) {
  const net::Json params = ParamsJson(q);
  ADGRAPH_ASSIGN_OR_RETURN(
      core::Params p,
      net::JobParamsFromJson(q.algo, &params, g.num_vertices()));
  vgpu::Device device(vgpu::A100Config());
  ADGRAPH_ASSIGN_OR_RETURN(core::AlgoResult r,
                           core::Run(&device, core::AlgoSpec{q.algo}, g, p));
  return serve::FingerprintPayload(r);
}

/// What a reader saw for one completed query.
struct ReadSample {
  double latency_ms = 0;
  double queue_ms = 0;
  double exec_ms = 0;
  double modeled_ms = 0;  ///< kernel + PCIe transfer, modeled
  double done_s = 0;      ///< completion, seconds into the window
  size_t query = 0;
  uint64_t fingerprint = 0;
  uint64_t version = 0;
  bool incremental = false;
};

struct ReadLog {
  std::mutex mutex;
  std::vector<ReadSample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Add(const ReadSample& s) {
    std::lock_guard<std::mutex> lock(mutex);
    attempted += 1;
    samples.push_back(s);
  }
  void Fail(std::string error) {
    std::lock_guard<std::mutex> lock(mutex);
    attempted += 1;
    failed += 1;
    if (errors.size() < 8) errors.push_back(std::move(error));
  }
};

/// One query over the wire: SUBMIT, then WaitJob until done.  Errors,
/// refusals and non-ok statuses come back as a Status.
Result<ReadSample> RunQuery(net::Client* client, const Query& q,
                            uint64_t track) {
  net::Json request = net::Json::MakeObject();
  request.Set("op", "SUBMIT");
  request.Set("graph", q.graph);
  request.Set("algo", std::string(core::AlgorithmName(q.algo)));
  request.Set("params", ParamsJson(q));
  if (q.incremental) request.Set("incremental", true);
  const Clock::time_point t0 = Clock::now();
  auto submitted = [&] {
    auto span = CallSpan(track, "net.call");
    return client->Call(request, kCallTimeoutMs);
  }();
  if (!submitted.ok()) return submitted.status();
  if (!submitted->GetBool("ok", false)) {
    return Status::Internal("SUBMIT refused: " +
                            submitted->GetString("error", "?"));
  }
  const uint64_t job = static_cast<uint64_t>(submitted->GetNumber("job", 0));
  auto done = [&] {
    auto span = CallSpan(track, "net.wait_job");
    return client->WaitJob(job, kCallTimeoutMs);
  }();
  const double latency = MsSince(t0);
  if (!done.ok()) return done.status();
  if (done->GetString("status", "") != "ok") {
    return Status::Internal(done->GetString("status", "?") + ": " +
                            done->GetString("error", ""));
  }
  ReadSample s;
  s.latency_ms = latency;
  s.queue_ms = done->GetNumber("queue_ms", 0);
  s.exec_ms = done->GetNumber("exec_ms", 0);
  s.modeled_ms =
      done->GetNumber("modeled_ms", 0) + done->GetNumber("transfer_ms", 0);
  s.fingerprint =
      std::strtoull(done->GetString("fingerprint", "0").c_str(), nullptr, 16);
  s.version = static_cast<uint64_t>(done->GetNumber("version", 0));
  s.incremental = done->GetBool("incremental", false);
  return s;
}

/// One closed-loop reader: submits the next query of the shared list and
/// waits for its reply before submitting another, until `end`.
void ReaderLoop(net::Client* client, const std::vector<Query>* queries,
                std::atomic<size_t>* cursor, Clock::time_point start,
                Clock::time_point end, ReadLog* log) {
  const uint64_t track = BenchTrack("bench reader");
  while (Clock::now() < end) {
    const size_t index = cursor->fetch_add(1) % queries->size();
    const Query& q = (*queries)[index];
    Result<ReadSample> s = RunQuery(client, q, track);
    if (!s.ok()) {
      log->Fail(q.graph + "/" + std::string(core::AlgorithmName(q.algo)) +
                ": " + s.status().ToString());
      continue;
    }
    s->query = index;
    s->done_s = MsSince(start) / 1e3;
    log->Add(*s);
  }
}

// ---------------------------------------------------------------------------
// Writes (serve-mutate)
// ---------------------------------------------------------------------------

struct MutationPlan {
  std::string graph;
  std::vector<std::vector<graph::EdgeUpdate>> batches;
  double rate = 0;  ///< batches per second
  size_t next = 0;  ///< first batch not sent yet, across windows
};

struct WriteLog {
  std::vector<double> latency_ms;  ///< completion minus due time
  std::vector<double> late_ms;     ///< send minus due time
  /// Version the server reported after each batch, in batch order.
  std::vector<uint64_t> versions;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
};

/// Open-loop writer: batch k is due at start + k / rate, sent when due (or
/// at once when the writer runs late), timed from its due time.
void WriterLoop(net::Client* client, MutationPlan* plan,
                Clock::time_point start, Clock::time_point end,
                WriteLog* log) {
  const uint64_t track = BenchTrack("bench writer");
  for (uint64_t k = 0; plan->next < plan->batches.size(); ++k) {
    const Clock::time_point due =
        start + Seconds(static_cast<double>(k) / plan->rate);
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    log->late_ms.push_back(MsSince(due));
    net::Json updates = net::Json::MakeArray();
    for (const graph::EdgeUpdate& u : plan->batches[plan->next]) {
      net::Json item = net::Json::MakeObject();
      item.Set("op", "add");
      item.Set("u", static_cast<uint64_t>(u.u));
      item.Set("v", static_cast<uint64_t>(u.v));
      updates.PushBack(std::move(item));
    }
    auto r = [&] {
      auto span = CallSpan(track, "net.mutate");
      return client->Mutate(plan->graph, std::move(updates), false,
                            kCallTimeoutMs);
    }();
    log->attempted += 1;
    plan->next += 1;
    if (!r.ok() || !r->GetBool("ok", false)) {
      log->failed += 1;
      log->errors.push_back(
          "MUTATE: " + (r.ok() ? r->GetString("error", "?")
                               : r.status().ToString()));
      // The replay cannot know what a failed batch did; stop writing.
      plan->next = plan->batches.size();
      break;
    }
    log->latency_ms.push_back(MsSince(due));
    log->versions.push_back(static_cast<uint64_t>(r->GetNumber("version", 0)));
  }
}

// ---------------------------------------------------------------------------
// Timed windows
// ---------------------------------------------------------------------------

/// Everything one timed window measured.
struct WindowStats {
  double seconds = 0;
  ReadLog reads;
  WriteLog writes;
  adgraph::prof::ServerStats before, after;
  net::ServerCounters counters_before, counters_after;
};

struct Clients {
  std::vector<net::Client> readers;
  std::optional<net::Client> writer;
};

/// One closed-loop thread per reader (and the writer, given a plan) for
/// `seconds`; then the scheduler drains.
void RunWindow(const Service& service, Clients* clients,
               const std::vector<Query>& queries, std::atomic<size_t>* cursor,
               MutationPlan* mutations, double seconds, WindowStats* stats) {
  stats->before = service.scheduler->Snapshot();
  stats->counters_before = service.server->Counters();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + Seconds(seconds);
  std::vector<std::thread> threads;
  for (net::Client& reader : clients->readers) {
    threads.emplace_back(ReaderLoop, &reader, &queries, cursor, start, end,
                         &stats->reads);
  }
  if (mutations != nullptr) {
    threads.emplace_back(WriterLoop, &*clients->writer, mutations, start, end,
                         &stats->writes);
  }
  for (std::thread& t : threads) t.join();
  stats->seconds = MsSince(start) / 1e3;
  service.scheduler->Drain();
  stats->after = service.scheduler->Snapshot();
  stats->counters_after = service.server->Counters();
}

double BusyMs(const adgraph::prof::ServerStats& s) {
  double busy = 0;
  for (const auto& d : s.devices) busy += d.busy_wall_ms;
  return busy;
}

// ---------------------------------------------------------------------------
// Set-up and reporting shared by both serve workloads
// ---------------------------------------------------------------------------

/// A started service with connected clients, warmed up.
struct Session {
  std::vector<NamedGraph> graphs;
  Service service;
  Clients clients;  // declared last: disconnects before the service stops
};

/// Builds the graphs, starts the service, connects two readers (and a
/// writer) and warms it up with `warm`.
Result<Session> SetUp(uint64_t track, bool writer,
                      Result<std::vector<NamedGraph>> (*build)(uint64_t),
                      double cache_share, const std::vector<Query>& warm) {
  Session s;
  ADGRAPH_ASSIGN_OR_RETURN(s.graphs, build(track));
  uint64_t total = 0;
  for (const NamedGraph& g : s.graphs) total += GraphBytes(*g.g);
  ADGRAPH_ASSIGN_OR_RETURN(
      s.service,
      StartService(s.graphs, static_cast<uint64_t>(cache_share * total)));
  for (int i = 0; i < 2; ++i) {
    ADGRAPH_ASSIGN_OR_RETURN(
        net::Client c, Connect(s.service, "reader" + std::to_string(i)));
    s.clients.readers.push_back(std::move(c));
  }
  if (writer) {
    ADGRAPH_ASSIGN_OR_RETURN(net::Client c, Connect(s.service, "writer"));
    s.clients.writer.emplace(std::move(c));
  }
  for (const Query& q : warm) {
    ADGRAPH_RETURN_NOT_OK(RunQuery(&s.clients.readers[0], q, track).status());
  }
  return s;
}

/// The untraced window and, for a traced run, the traced one.
struct ServeRun {
  WindowStats untraced;
  WindowStats traced;
  TraceDigest digest;
  uint64_t dropped = 0;
};

void RunWindows(const RunOptions& options, Session* session,
                const std::vector<Query>& queries, MutationPlan* mutations,
                ServeRun* run) {
  const Windows windows = SplitWindows(options);
  std::atomic<size_t> cursor{0};
  RunWindow(session->service, &session->clients, queries, &cursor, mutations,
            windows.untraced_s, &run->untraced);
  if (!options.trace) return;
  adgraph::trace::Collector collector(kCollectorCapacity);
  RunWindow(session->service, &session->clients, queries, &cursor, mutations,
            windows.traced_s, &run->traced);
  run->digest.Add(collector.Events(), /*per_track=*/true);
  run->dropped = collector.dropped();
}

/// Adds the reads and writes of both windows to `result`, with the first
/// errors as notes.
void CountLogs(const std::string& workload, const ServeRun& run,
               WorkloadResult* result) {
  for (const WindowStats* s : {&run.untraced, &run.traced}) {
    result->attempted += s->reads.attempted + s->writes.attempted;
    result->failed += s->reads.failed + s->writes.failed;
    for (const auto* errors : {&s->reads.errors, &s->writes.errors}) {
      for (const std::string& e : *errors) {
        result->notes.push_back(workload + ": FAILED " + e);
      }
    }
  }
}

/// Fills a serve workload's metrics from its windows.
void Report(const std::string& workload, const RunOptions& options,
            const std::vector<double>& setup_s,
            const TraceDigest& setup_digest, const ServeRun& run,
            WorkloadResult* result) {
  const WindowStats& u = run.untraced;
  const std::vector<ReadSample>& samples = u.reads.samples;
  const double jobs = static_cast<double>(samples.size());
  const double per_pass = Ratio(static_cast<double>(kPassJobs), jobs);

  // The window is cut into equal slices by completion time; each
  // end-to-end figure is the median over the slices, so that a burst of
  // load from elsewhere on the machine during one slice does not move it.
  const size_t num_slices = std::max<size_t>(
      1, std::min(static_cast<size_t>(u.seconds / kSliceSeconds),
                  samples.size() / kSliceReads));
  const double slice_s = u.seconds / static_cast<double>(num_slices);
  std::vector<std::vector<const ReadSample*>> slices(num_slices);
  for (const ReadSample& s : samples) {
    const size_t i = static_cast<size_t>(s.done_s / slice_s);
    slices[std::min(num_slices - 1, i)].push_back(&s);
  }
  std::vector<double> rate, p50, p99, modeled;
  size_t fewest = samples.size();
  for (size_t i = 0; i < num_slices; ++i) {
    std::vector<double> latency;
    double modeled_ms = 0;
    for (const ReadSample* s : slices[i]) {
      latency.push_back(s->latency_ms);
      modeled_ms += s->modeled_ms;
    }
    const Summary lat = Summarize(latency);
    rate.push_back(Ratio(static_cast<double>(lat.n), slice_s));
    p50.push_back(lat.p50);
    p99.push_back(lat.p99);
    modeled.push_back(
        Ratio(modeled_ms * kPassJobs, static_cast<double>(lat.n)));
    fewest = std::min(fewest, lat.n);
  }
  const double jobs_per_s = Median(rate);
  MetricMap& e2e = result->end_to_end;
  Put(&e2e, "setup_s", Median(setup_s));
  Put(&e2e, "host_s", Ratio(static_cast<double>(kPassJobs), jobs_per_s));
  Put(&e2e, "modeled_ms", Median(modeled));
  Put(&e2e, "jobs_per_s", jobs_per_s);
  Put(&e2e, "job_p50_ms", Median(p50));
  Put(&e2e, "job_p99_ms", Median(p99));
  Put(&e2e, "peak_rss_mb", PeakRssMb());
  const std::optional<double> tail = ReportableTail(fewest);
  result->notes.push_back(
      workload + ": " + std::to_string(samples.size()) + " reads in " +
      Fixed(u.seconds) + " s untraced, " + std::to_string(num_slices) +
      " slices of at least " + std::to_string(fewest) + " reads; " +
      (tail ? "reportable tail per slice p" + Fixed(100 * *tail, 1)
            : std::string("no tail with 10 beyond")) +
      (tail && *tail < 0.99 ? " (job_p99_ms has fewer than 10 beyond)" : ""));
  const Summary mut = Summarize(u.writes.latency_ms);
  if (mut.n > 0) {
    result->notes.push_back(
        workload + ": mutate_p50_ms = " + Fixed(mut.p50) +
        " ms, mutate_p99_ms = " + Fixed(mut.p99) +
        " ms (host, from due time; n=" + std::to_string(mut.n) +
        (mut.tail_p ? ", reportable tail p" + Fixed(100 * *mut.tail_p, 1) +
                          " = " + Fixed(mut.tail) + " ms"
                    : std::string()) +
        ")");
  }
  if (!options.trace) return;

  const WindowStats& t = run.traced;
  const double traced_jobs = static_cast<double>(t.reads.samples.size());
  const double traced_per_pass =
      Ratio(static_cast<double>(kPassJobs), traced_jobs);
  const TraceDigest& d = run.digest;
  auto delta = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  MetricMap& pl = result->per_layer;
  Put(&pl, "graph.generate_ms", setup_digest.BenchTotalMs("graph.generate"));
  Put(&pl, "graph.csr_build_ms",
      setup_digest.BenchTotalMs("graph.csr_build"));
  Put(&pl, "core.stage_host_ms", d.memcpy_host_ms * traced_per_pass);
  Put(&pl, "core.h2d_bytes", d.h2d_bytes * traced_per_pass);
  const double hits = delta(u.after.cache_hits, u.before.cache_hits);
  const double lookups =
      hits + delta(u.after.cache_misses, u.before.cache_misses);
  Put(&pl, "serve.cache_hit_ratio", Ratio(hits, lookups));
  Put(&pl, "serve.cache_lookups", lookups * per_pass);
  Put(&pl, "serve.cache_evictions",
      delta(u.after.cache_evictions, u.before.cache_evictions) * per_pass);
  Put(&pl, "serve.stale_invalidated",
      delta(u.after.cache_stale_invalidated,
            u.before.cache_stale_invalidated) *
          per_pass);
  Put(&pl, "engine.rounds",
      static_cast<double>(d.phase_spans) * traced_per_pass);
  Put(&pl, "engine.launches",
      static_cast<double>(d.kernel_spans) * traced_per_pass);
  Put(&pl, "engine.self_ms", d.engine_self_ms * traced_per_pass);
  Put(&pl, "vgpu.kernel_host_ms", d.kernel_host_ms * traced_per_pass);
  Put(&pl, "vgpu.warp_inst", d.warp_inst * traced_per_pass);
  Put(&pl, "vgpu.host_ns_per_warp_inst",
      Ratio(d.kernel_host_ms * 1e6, d.warp_inst));
  Put(&pl, "vgpu.host_per_modeled",
      Ratio(d.kernel_host_ms, d.kernel_modeled_ms));

  // Timing distributions come from the untraced window.
  std::vector<double> queue, exec, overhead;
  for (const ReadSample& s : samples) {
    queue.push_back(s.queue_ms);
    exec.push_back(s.exec_ms);
    overhead.push_back(s.latency_ms - s.queue_ms - s.exec_ms);
  }
  const Summary q = Summarize(queue);
  const Summary x = Summarize(exec);
  const Summary o = Summarize(overhead);
  Put(&pl, "serve.queue_wait_ms_p50", q.p50);
  Put(&pl, "serve.queue_wait_ms_p99", q.p99);
  Put(&pl, "serve.exec_ms_p50", x.p50);
  Put(&pl, "serve.exec_ms_p99", x.p99);
  Put(&pl, "serve.worker_busy_frac",
      Ratio(BusyMs(u.after) - BusyMs(u.before),
            static_cast<double>(u.after.devices.size()) * u.seconds * 1e3));
  Put(&pl, "net.overhead_ms_p50", o.p50);
  Put(&pl, "net.overhead_ms_p99", o.p99);
  const double polls =
      delta(u.counters_after.requests, u.counters_before.requests) -
      delta(u.counters_after.submits_accepted,
            u.counters_before.submits_accepted) -
      static_cast<double>(u.writes.attempted);
  Put(&pl, "net.polls_per_job", Ratio(polls, jobs));
  Put(&pl, "net.mutate_p50_ms", mut.p50);
  Put(&pl, "net.mutate_p99_ms", mut.p99);
  Put(&pl, "loadgen.late_p99_ms", Summarize(u.writes.late_ms).p99);
  Put(&pl, "trace.overhead_frac",
      Ratio(Ratio(jobs, u.seconds), Ratio(traced_jobs, t.seconds)) - 1.0);
  Put(&pl, "trace.dropped_spans", static_cast<double>(run.dropped));
  if (run.dropped > 0) {
    // A traced run that lost spans has incomplete per-layer figures.
    result->attempted += 1;
    result->failed += 1;
    result->notes.push_back(workload +
                            ": FAILED the trace collector dropped spans");
  }
  result->notes.push_back(workload + ": traced " +
                          std::to_string(t.reads.samples.size()) +
                          " reads in " + Fixed(t.seconds) +
                          " s; dropped spans " + std::to_string(run.dropped));
}

}  // namespace

// ---------------------------------------------------------------------------
// serve-read
// ---------------------------------------------------------------------------

WorkloadResult RunServeRead(const RunOptions& options) {
  const uint64_t track = BenchTrack();
  // The graphs are fixed recipes; one untimed build derives the job list
  // and its references before anything is timed.  The list's make-up is
  // fixed — graphs in Zipf(1) proportion, the five algorithms evenly within
  // each graph, sources cycling through four per graph — and the seed picks
  // the sources and the order, so every seed asks for the same mix of work.
  auto graphs = BuildReadGraphs(track);
  if (!graphs.ok()) return SetupFailure("serve-read", graphs.status());
  std::mt19937_64 rng(options.seed);
  const core::Algo algos[] = {core::Algo::kBfs, core::Algo::kSssp,
                              core::Algo::kBetweenness,
                              core::Algo::kConnectedComponents,
                              core::Algo::kPageRank};
  std::vector<Query> queries;
  std::map<std::tuple<std::string, core::Algo, graph::vid_t>, uint64_t>
      references;
  const std::vector<size_t> shares = ZipfShares(graphs->size(), kPassJobs);
  for (size_t gi = 0; gi < graphs->size(); ++gi) {
    const NamedGraph& g = (*graphs)[gi];
    std::vector<graph::vid_t> sources;
    for (int k = 0; k < 4; ++k) sources.push_back(DrawSource(*g.g, &rng));
    for (size_t j = 0; j < shares[gi]; ++j) {
      Query q{g.name, algos[j % 5], sources[(j / 5) % 4]};
      auto key = std::make_tuple(q.graph, q.algo, q.source);
      auto it = references.find(key);
      if (it == references.end()) {
        auto fp = DirectFingerprint(q, *g.g);
        if (!fp.ok()) return SetupFailure("serve-read", fp.status());
        it = references.emplace(key, *fp).first;
      }
      q.expected = it->second;
      queries.push_back(q);
    }
  }
  std::shuffle(queries.begin(), queries.end(), rng);
  // Warm-up: CC on every graph, the same work whatever the seed.
  std::vector<Query> warm;
  for (const NamedGraph& g : *graphs) {
    warm.push_back({g.name, core::Algo::kConnectedComponents});
  }

  std::vector<double> setup_s;
  TraceDigest setup_digest;
  // Each worker's residency cache holds 40% of the six graphs' bytes, so
  // the graphs cannot all stay resident and misses keep restaging.
  auto session = TimedSetups(
      kSetups, options.trace, /*per_track=*/true, &setup_s, &setup_digest,
      [&] {
        return SetUp(track, /*writer=*/false, BuildReadGraphs, 0.4, warm);
      });
  if (!session.ok()) return SetupFailure("serve-read", session.status());

  ServeRun run;
  RunWindows(options, &*session, queries, nullptr, &run);
  WorkloadResult result;
  CountLogs("serve-read", run, &result);
  for (const WindowStats* s : {&run.untraced, &run.traced}) {
    for (const ReadSample& sample : s->reads.samples) {
      const Query& q = queries[sample.query];
      if (sample.fingerprint != q.expected) {
        result.failed += 1;
        result.notes.push_back("serve-read: MISMATCH " + q.graph + "/" +
                               std::string(core::AlgorithmName(q.algo)) +
                               " differs from a direct core::Run");
      }
    }
  }
  Report("serve-read", options, setup_s, setup_digest, run, &result);
  return result;
}

// ---------------------------------------------------------------------------
// serve-mutate
// ---------------------------------------------------------------------------

WorkloadResult RunServeMutate(const RunOptions& options) {
  const uint64_t track = BenchTrack();
  auto built = BuildLiveGraph(track);
  if (!built.ok()) return SetupFailure("serve-mutate", built.status());
  const std::string live = (*built)[0].name;
  const std::shared_ptr<const graph::CsrGraph> base = (*built)[0].g;

  // Seeded reads — incremental PageRank, BFS from four seeded sources and
  // CC, in equal shares — and seeded insert batches.
  std::mt19937_64 rng(options.seed);
  std::vector<graph::vid_t> sources;
  for (int k = 0; k < 4; ++k) sources.push_back(DrawSource(*base, &rng));
  const core::Algo algos[] = {core::Algo::kPageRank, core::Algo::kBfs,
                              core::Algo::kConnectedComponents};
  //
  // PageRank runs a fixed budget of 5 iterations.  Run to tolerance, a
  // warm start costs about 9x more when a mutation landed since the
  // previous result than when none did, so a read's work would hinge on how
  // fast the loop went: the closed loop settled run by run into a fast or
  // a slow regime (modeled_ms 5.5-11.0 over ten seeds).  With the budget,
  // every PageRank read does the same work.
  std::vector<Query> queries;
  for (size_t j = 0; j < kPassJobs; ++j) {
    queries.push_back({live, algos[j % 3], sources[(j / 3) % 4],
                       /*incremental=*/true, /*pagerank_iters=*/5});
  }
  std::shuffle(queries.begin(), queries.end(), rng);
  // Warm-up: each algorithm once, BFS from vertex 0, whatever the seed.
  std::vector<Query> warm;
  for (core::Algo algo : algos) warm.push_back({live, algo, 0, true, 5});
  MutationPlan plan;
  plan.graph = live;
  // Two batches a second: each one dooms every resident variant on both
  // workers, and restaging is modeled transfer, so the share of reads that
  // restage falls as the readers speed up; at 20/s that feedback spread
  // jobs_per_s 0.16 over five seeds.
  plan.rate = 2;
  const size_t batches =
      static_cast<size_t>(plan.rate * (options.seconds + 2)) + 8;
  for (size_t k = 0; k < batches; ++k) {
    std::vector<graph::EdgeUpdate> batch(4);
    for (graph::EdgeUpdate& u : batch) {
      u.u = static_cast<graph::vid_t>(rng() % base->num_vertices());
      u.v = static_cast<graph::vid_t>(rng() % base->num_vertices());
    }
    plan.batches.push_back(std::move(batch));
  }

  std::vector<double> setup_s;
  TraceDigest setup_digest;
  // The cache holds every variant of the one graph: misses here come only
  // from mutations invalidating residency.
  auto session = TimedSetups(
      kSetups, options.trace, /*per_track=*/true, &setup_s, &setup_digest,
      [&] { return SetUp(track, /*writer=*/true, BuildLiveGraph, 4.0, warm); });
  if (!session.ok()) return SetupFailure("serve-mutate", session.status());

  ServeRun run;
  RunWindows(options, &*session, queries, &plan, &run);
  WorkloadResult result;
  CountLogs("serve-mutate", run, &result);

  // Replay the applied batches on a local delta graph, check the versions
  // the server reported, and compare every read with a full recompute on
  // the snapshot at its version.
  std::map<uint64_t, std::vector<const ReadSample*>> by_version;
  uint64_t incremental = 0;
  for (const WindowStats* s : {&run.untraced, &run.traced}) {
    for (const ReadSample& sample : s->reads.samples) {
      by_version[sample.version].push_back(&sample);
      incremental += sample.incremental;
    }
  }
  std::vector<uint64_t> versions = run.untraced.writes.versions;
  versions.insert(versions.end(), run.traced.writes.versions.begin(),
                  run.traced.writes.versions.end());
  auto replay = graph::DeltaGraph::Create(base);
  if (!replay.ok()) return SetupFailure("serve-mutate", replay.status());
  uint64_t unchecked = 0;
  uint64_t wrong_incremental_bfs = 0;
  auto mismatch = [&](const std::string& what) {
    result.failed += 1;
    if (result.notes.size() < 24) {
      result.notes.push_back("serve-mutate: MISMATCH " + what);
    }
  };
  auto check_version = [&](uint64_t version) {
    auto it = by_version.find(version);
    if (it == by_version.end()) return;
    auto snapshot = replay->Snapshot();
    if (!snapshot.ok()) {
      return mismatch("snapshot: " + snapshot.status().ToString());
    }
    std::map<std::pair<core::Algo, graph::vid_t>, uint64_t> full;
    for (const ReadSample* s : it->second) {
      const Query& q = queries[s->query];
      if (q.algo == core::Algo::kPageRank && s->incremental) {
        // Warm-started PageRank converges to within tolerance of a full
        // run, not bit for bit, and the wire carries only a fingerprint.
        unchecked += 1;
        continue;
      }
      const auto key = std::make_pair(q.algo, q.source);
      if (!full.count(key)) {
        auto fp = DirectFingerprint(q, **snapshot);
        if (!fp.ok()) return mismatch("reference: " + fp.status().ToString());
        full[key] = *fp;
      }
      if (s->fingerprint != full[key]) {
        wrong_incremental_bfs += q.algo == core::Algo::kBfs && s->incremental;
        mismatch(std::string(core::AlgorithmName(q.algo)) + " at version " +
                 std::to_string(version) +
                 (s->incremental ? " (incremental)" : " (full)") +
                 " differs from a full recompute");
      }
    }
    by_version.erase(it);
  };
  check_version(0);
  for (size_t k = 0; k < versions.size(); ++k) {
    auto applied = replay->Apply(plan.batches[k]);
    if (!applied.ok() || replay->version() != versions[k]) {
      mismatch("replayed batch " + std::to_string(k) + " reaches version " +
               std::to_string(replay->version()) + ", server reported " +
               std::to_string(versions[k]));
      break;
    }
    check_version(replay->version());
  }
  for (const auto& [version, samples] : by_version) {
    mismatch(std::to_string(samples.size()) + " reads at version " +
             std::to_string(version) + ", which no replayed batch reached");
  }
  if (wrong_incremental_bfs > 0) {
    result.notes.push_back(
        "serve-mutate: DEFECT " + std::to_string(wrong_incremental_bfs) +
        " incremental BFS reads differ from a full recompute; the server "
        "warm-starts them from its newest BFS result whatever that result's "
        "source (perfbench/README.md, known defect 2)");
  }
  result.notes.push_back(
      "serve-mutate: " + std::to_string(incremental) +
      " reads ran incrementally; " + std::to_string(unchecked) +
      " warm-started PageRank results are not bit-checkable and were not "
      "compared; " +
      std::to_string(versions.size()) + " batches applied");
  Report("serve-mutate", options, setup_s, setup_digest, run, &result);
  return result;
}

}  // namespace perfbench

#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "prof/server_stats.h"
#include "serve/registry.h"
#include "trace/trace.h"

namespace adgraph::net {
namespace {

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(std::string("fcntl(O_NONBLOCK): ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

Result<std::pair<int, int>> MakeWakePipe() {
  int fds[2];
  if (pipe(fds) != 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  for (int fd : fds) {
    Status status = SetNonBlocking(fd);
    if (!status.ok()) {
      close(fds[0]);
      close(fds[1]);
      return status;
    }
  }
  return std::make_pair(fds[0], fds[1]);
}

}  // namespace

Server::Server(serve::Scheduler* scheduler, GraphMap graphs,
               ServerOptions options)
    : scheduler_(scheduler),
      graphs_(std::move(graphs)),
      options_(std::move(options)),
      tenants_(options_.tenants) {
  if (options_.handler_threads == 0) options_.handler_threads = 1;
  if (options_.max_line_bytes == 0) options_.max_line_bytes =
      kDefaultMaxLineBytes;
}

Result<std::unique_ptr<Server>> Server::Start(serve::Scheduler* scheduler,
                                              GraphMap graphs,
                                              ServerOptions options) {
  if (scheduler == nullptr) {
    return Status::InvalidArgument("net::Server needs a scheduler");
  }
  if (graphs.empty()) {
    return Status::InvalidArgument("net::Server needs at least one graph");
  }
  std::unique_ptr<Server> server(
      new Server(scheduler, std::move(graphs), std::move(options)));
  // Wrap every normal-form graph in a delta buffer so MUTATE can serve it;
  // a base that fails normal-form validation stays static (SUBMIT works,
  // MUTATE reports failed_precondition).
  for (const auto& [name, base] : server->graphs_) {
    auto delta = graph::DeltaGraph::Create(base);
    if (!delta.ok()) continue;
    auto dynamic = std::make_unique<DynamicGraph>();
    dynamic->delta = std::move(*delta);
    auto snapshot = dynamic->delta.Snapshot();
    if (!snapshot.ok()) continue;
    dynamic->snapshot = std::move(*snapshot);
    server->dynamic_.emplace(name, std::move(dynamic));
  }
  ADGRAPH_RETURN_NOT_OK(server->Listen());
  server->RegisterMetrics();
  ADGRAPH_ASSIGN_OR_RETURN(auto accept_pipe, MakeWakePipe());
  server->accept_wake_fds_[0] = accept_pipe.first;
  server->accept_wake_fds_[1] = accept_pipe.second;
  for (size_t i = 0; i < server->options_.handler_threads; ++i) {
    auto shard = std::make_unique<Shard>();
    ADGRAPH_ASSIGN_OR_RETURN(auto pipe_fds, MakeWakePipe());
    shard->wake_fds[0] = pipe_fds.first;
    shard->wake_fds[1] = pipe_fds.second;
    server->shards_.push_back(std::move(shard));
  }
  for (auto& shard : server->shards_) {
    Shard* raw = shard.get();
    shard->thread = std::thread([server = server.get(), raw] {
      server->HandlerLoop(raw);
    });
  }
  server->accept_thread_ = std::thread([server = server.get()] {
    server->AcceptLoop();
  });
  return server;
}

Server::~Server() { Shutdown(); }

Status Server::Listen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("cannot parse listen host '" +
                                   options_.host + "' as an IPv4 address");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Status::IOError(std::string("bind ") + options_.host + ":" +
                                    std::to_string(options_.port) + ": " +
                                    std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (listen(listen_fd_, 64) != 0) {
    Status status =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status status =
        Status::Internal(std::string("getsockname: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(addr.sin_port);
  return SetNonBlocking(listen_fd_);
}

void Server::RegisterMetrics() {
  obs::Registry* registry = scheduler_->mutable_metrics_registry();
  metric_sessions_opened_ = registry->GetCounter(
      "adgraph_net_sessions_opened_total", "TCP sessions accepted");
  metric_sessions_closed_ = registry->GetCounter(
      "adgraph_net_sessions_closed_total", "TCP sessions closed");
  metric_requests_ = registry->GetCounter("adgraph_net_requests_total",
                                          "protocol request lines handled");
  metric_protocol_errors_ = registry->GetCounter(
      "adgraph_net_protocol_errors_total",
      "malformed, oversized or out-of-order request lines");
  metric_live_sessions_ = registry->GetGauge("adgraph_net_live_sessions",
                                             "currently open TCP sessions");
}

Server::TenantMetrics* Server::MetricsFor(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(tenant_metrics_mutex_);
  auto [it, inserted] = tenant_metrics_.try_emplace(tenant);
  if (inserted) {
    obs::Registry* registry = scheduler_->mutable_metrics_registry();
    obs::LabelSet labels = {{"tenant", tenant.empty() ? "-" : tenant}};
    it->second.accepted = registry->GetCounter(
        "adgraph_net_submits_accepted_total",
        "SUBMIT requests admitted through tenant quotas", labels);
    it->second.rejected_quota = registry->GetCounter(
        "adgraph_net_submits_rejected_quota_total",
        "SUBMIT requests rejected by tenant quotas", labels);
    it->second.shed_wire = registry->GetCounter(
        "adgraph_net_outcomes_shed_total",
        "deadline_exceeded outcomes delivered over the wire", labels);
  }
  return &it->second;
}

void Server::WakeShard(Shard* shard) {
  char byte = 1;
  ssize_t rc = write(shard->wake_fds[1], &byte, 1);
  (void)rc;  // a full pipe already wakes the shard
}

void Server::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (shutdown_done_) return;
  shutdown_done_ = true;
  stopping_.store(true, std::memory_order_release);
  if (accept_wake_fds_[1] >= 0) {
    char byte = 1;
    ssize_t rc = write(accept_wake_fds_[1], &byte, 1);
    (void)rc;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& shard : shards_) WakeShard(shard.get());
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
    for (int fd : shard->wake_fds) {
      if (fd >= 0) close(fd);
    }
  }
  for (int fd : accept_wake_fds_) {
    if (fd >= 0) close(fd);
  }
  accept_wake_fds_[0] = accept_wake_fds_[1] = -1;
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
}

ServerCounters Server::Counters() const {
  ServerCounters counters;
  counters.sessions_opened = sessions_opened_.load();
  counters.sessions_closed = sessions_closed_.load();
  counters.requests = requests_.load();
  counters.protocol_errors = protocol_errors_.load();
  counters.lines_oversized = lines_oversized_.load();
  counters.submits_accepted = submits_accepted_.load();
  counters.submits_rejected_quota = submits_rejected_quota_.load();
  counters.submits_rejected_scheduler = submits_rejected_scheduler_.load();
  counters.jobs_orphaned = jobs_orphaned_.load();
  counters.mutations_applied = mutations_applied_.load();
  return counters;
}

void Server::AcceptLoop() {
  size_t next_shard = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                     {accept_wake_fds_[0], POLLIN, 0}};
    int rc = poll(fds, 2, 500);
    if (rc < 0 && errno != EINTR) break;
    if (stopping_.load(std::memory_order_acquire)) break;
    if (rc <= 0 || !(fds[0].revents & POLLIN)) continue;
    while (true) {
      int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN (drained) or a transient accept error
      }
      if (!SetNonBlocking(fd).ok()) {
        close(fd);
        continue;
      }
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (live_sessions_.load() >= options_.max_sessions) {
        std::string line =
            ErrorResponse("resource_exhausted", "session limit reached")
                .Dump() +
            "\n";
        (void)send(fd, line.data(), line.size(), MSG_NOSIGNAL);
        close(fd);
        continue;
      }
      sessions_opened_.fetch_add(1);
      metric_sessions_opened_->Increment();
      metric_live_sessions_->Set(
          static_cast<double>(live_sessions_.fetch_add(1) + 1));
      Shard* shard = shards_[next_shard++ % shards_.size()].get();
      {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->incoming.push_back(fd);
      }
      WakeShard(shard);
    }
  }
}

void Server::AdoptIncoming(Shard* shard) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(shard->mutex);
    fds.swap(shard->incoming);
  }
  for (int fd : fds) {
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->session_id = next_session_id_.fetch_add(1);
    conn->shard = shard;
    shard->connections.push_back(std::move(conn));
  }
}

void Server::HandlerLoop(Shard* shard) {
  std::vector<pollfd> fds;
  while (!stopping_.load(std::memory_order_acquire)) {
    AdoptIncoming(shard);
    fds.clear();
    fds.push_back({shard->wake_fds[0], POLLIN, 0});
    for (const auto& conn : shard->connections) {
      short events = POLLIN;
      if (!conn->outbuf.empty()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
    }
    // Short timeout while orphans wait on futures, long otherwise (wakeups
    // cover new connections; POLLIN covers request traffic).
    int timeout_ms = shard->orphans.empty() ? 200 : 20;
    int rc = poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    if (rc < 0 && errno != EINTR) continue;
    if (fds[0].revents & POLLIN) {
      char buf[64];
      while (read(shard->wake_fds[0], buf, sizeof(buf)) > 0) {
      }
    }
    std::vector<std::unique_ptr<Connection>> alive;
    alive.reserve(shard->connections.size());
    for (size_t i = 0; i < shard->connections.size(); ++i) {
      std::unique_ptr<Connection> conn = std::move(shard->connections[i]);
      short revents = rc > 0 ? fds[i + 1].revents : 0;
      bool keep = true;
      if (revents & (POLLIN | POLLHUP | POLLERR)) {
        keep = HandleReadable(conn.get());
      }
      if (keep && !conn->outbuf.empty()) keep = FlushOutput(conn.get());
      if (keep && conn->drop_after_flush && conn->outbuf.empty()) keep = false;
      if (keep) {
        alive.push_back(std::move(conn));
      } else {
        DropConnection(shard, std::move(conn));
      }
    }
    shard->connections = std::move(alive);
    ReapOrphans(shard, /*final=*/false);
  }
  // Teardown: best-effort flush, then close everything and release every
  // outstanding tenant charge.
  AdoptIncoming(shard);
  for (auto& conn : shard->connections) FlushOutput(conn.get());
  while (!shard->connections.empty()) {
    auto conn = std::move(shard->connections.back());
    shard->connections.pop_back();
    DropConnection(shard, std::move(conn));
  }
  ReapOrphans(shard, /*final=*/true);
}

bool Server::HandleReadable(Connection* conn) {
  char buf[4096];
  while (true) {
    ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      // Keep reading until EAGAIN so level-triggered poll stays simple; the
      // per-line cap below bounds memory even against a garbage firehose.
      if (conn->inbuf.size() > 2 * options_.max_line_bytes) break;
      continue;
    }
    if (n == 0) {
      // Peer closed.  Process what arrived (complete lines get responses
      // that FlushOutput will try to deliver), then drop: a mid-request
      // disconnect must release the session, not wedge it.
      ProcessBufferedLines(conn);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // ECONNRESET and friends
  }
  ProcessBufferedLines(conn);
  return true;
}

bool Server::FlushOutput(Connection* conn) {
  while (!conn->outbuf.empty()) {
    ssize_t n = send(conn->fd, conn->outbuf.data(), conn->outbuf.size(),
                     MSG_NOSIGNAL);
    if (n > 0) {
      conn->outbuf.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // EPIPE / ECONNRESET — receiver is gone
  }
  return true;
}

void Server::ProcessBufferedLines(Connection* conn) {
  size_t start = 0;
  while (!conn->drop_after_flush) {
    size_t newline = conn->inbuf.find('\n', start);
    if (newline == std::string::npos) break;
    std::string line = conn->inbuf.substr(start, newline - start);
    start = newline + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    if (line.size() > options_.max_line_bytes) {
      lines_oversized_.fetch_add(1);
      protocol_errors_.fetch_add(1);
      metric_protocol_errors_->Increment();
      conn->outbuf +=
          ErrorResponse("resource_exhausted",
                        "request line exceeds " +
                            std::to_string(options_.max_line_bytes) + " bytes")
              .Dump() +
          "\n";
      conn->drop_after_flush = true;
      break;
    }
    Json response = HandleRequest(conn, line);
    trace::Span respond(conn->trace_track, "respond", "net");
    conn->outbuf += response.Dump();
    conn->outbuf.push_back('\n');
  }
  conn->inbuf.erase(0, start);
  // A partial line longer than the cap can never complete into a legal
  // request — reject it now instead of buffering a slow-loris feed forever.
  if (!conn->drop_after_flush && conn->inbuf.size() > options_.max_line_bytes) {
    lines_oversized_.fetch_add(1);
    protocol_errors_.fetch_add(1);
    metric_protocol_errors_->Increment();
    conn->inbuf.clear();
    conn->outbuf +=
        ErrorResponse("resource_exhausted",
                      "request line exceeds " +
                          std::to_string(options_.max_line_bytes) + " bytes")
            .Dump() +
        "\n";
    conn->drop_after_flush = true;
  }
}

Json Server::HandleRequest(Connection* conn, const std::string& line) {
  requests_.fetch_add(1);
  metric_requests_->Increment();
  if (trace::Enabled() && conn->trace_track == 0) {
    conn->trace_track =
        trace::RegisterTrack("session " + std::to_string(conn->session_id));
  }
  trace::Span request_span(conn->trace_track, "request", "net");
  request_span.ArgNum("bytes", static_cast<uint64_t>(line.size()));

  trace::Span parse_span(conn->trace_track, "parse", "net");
  Result<Json> parsed = Json::Parse(line);
  parse_span.End();
  if (!parsed.ok()) {
    protocol_errors_.fetch_add(1);
    metric_protocol_errors_->Increment();
    return ErrorResponse(parsed.status());
  }
  const Json& request = *parsed;
  std::string op = request.GetString("op", "");
  request_span.Arg("op", op);

  Json response;
  if (op == "HELLO") {
    response = HandleHello(conn, request);
  } else if (op == "SUBMIT") {
    response = HandleSubmit(conn, request);
  } else if (op == "POLL") {
    response = HandlePoll(conn, request);
  } else if (op == "CANCEL") {
    response = HandleCancel(conn, request);
  } else if (op == "MUTATE") {
    response = HandleMutate(conn, request);
  } else if (op == "STATS") {
    response = HandleStats(conn, request);
  } else if (op == "INSPECT") {
    response = HandleInspect(conn, request);
  } else {
    protocol_errors_.fetch_add(1);
    metric_protocol_errors_->Increment();
    response = ErrorResponse("invalid_argument", "unknown op '" + op + "'");
  }
  response.Set("op", op);
  if (const Json* seq = request.Find("seq")) response.Set("seq", *seq);
  return response;
}

Json Server::HandleHello(Connection* conn, const Json& request) {
  if (conn->hello_done) {
    protocol_errors_.fetch_add(1);
    metric_protocol_errors_->Increment();
    return ErrorResponse("already_exists", "session already started");
  }
  double proto = request.GetNumber("proto", kProtocolVersion);
  if (proto > kProtocolVersion) {
    return ErrorResponse("unimplemented",
                         "protocol version " + std::to_string(proto) +
                             " not supported (server speaks " +
                             std::to_string(kProtocolVersion) + ")");
  }
  std::string tenant = request.GetString("tenant", "");
  if (!tenants_.empty()) {
    const TenantConfig* config = tenants_.Find(tenant);
    if (config == nullptr) {
      // Unknown tenant is an authorization failure: respond, then close.
      protocol_errors_.fetch_add(1);
      metric_protocol_errors_->Increment();
      conn->drop_after_flush = true;
      return ErrorResponse("not_found", "unknown tenant '" + tenant + "'");
    }
    conn->contract = *config;
    conn->quotas_enforced = true;
  } else {
    conn->contract = TenantConfig{};
    conn->contract.name = tenant;
  }
  conn->tenant = tenant;
  conn->hello_done = true;
  Json response = Json::MakeObject();
  response.Set("ok", true);
  response.Set("proto", kProtocolVersion);
  response.Set("session", conn->session_id);
  response.Set("tenant", tenant);
  response.Set("priority", static_cast<uint64_t>(conn->contract.priority));
  response.Set("weight", conn->contract.weight);
  if (conn->contract.default_deadline_ms > 0) {
    response.Set("deadline_ms", conn->contract.default_deadline_ms);
  }
  return response;
}

Json Server::HandleSubmit(Connection* conn, const Json& request) {
  if (!conn->hello_done) {
    protocol_errors_.fetch_add(1);
    metric_protocol_errors_->Increment();
    return ErrorResponse("invalid_argument", "HELLO must come first");
  }
  auto algo = serve::ParseAlgorithm(request.GetString("algo", ""));
  if (!algo.ok()) return ErrorResponse(algo.status());
  std::string graph_name = request.GetString("graph", "default");
  auto graph_it = graphs_.find(graph_name);
  if (graph_it == graphs_.end()) {
    return ErrorResponse("not_found", "unknown graph '" + graph_name + "'");
  }

  serve::JobSpec spec;
  spec.graph = graph_it->second;
  DynamicGraph* dyn = nullptr;
  if (auto dyn_it = dynamic_.find(graph_name); dyn_it != dynamic_.end()) {
    dyn = dyn_it->second.get();
  }
  uint64_t snapshot_version = 0;
  if (dyn != nullptr) {
    // Mutable graph: run against the current published snapshot, whose
    // (family fingerprint, epoch) stamp keys the residency cache per
    // version — a job admitted after a MUTATE can never reuse a resident
    // copy of an older epoch.
    std::lock_guard<std::mutex> lock(dyn->mutex);
    spec.graph = dyn->snapshot;
    snapshot_version = dyn->delta.version();
  }
  auto params = JobParamsFromJson(*algo, request.Find("params"),
                                  spec.graph->num_vertices());
  if (!params.ok()) return ErrorResponse(params.status());
  spec.params = std::move(*params);
  spec.arch_preference = request.GetString("arch", "");
  spec.tag = request.GetString("tag", "");
  spec.tenant = conn->tenant;
  spec.priority = conn->contract.priority;
  spec.fair_weight = conn->contract.weight;
  spec.deadline_ms =
      request.GetNumber("deadline_ms", conn->contract.default_deadline_ms);
  // Out-of-core streaming (DESIGN.md §2.13): a job over the device budget
  // is admitted through the streamed tier instead of rejected.
  spec.allow_streamed = request.GetBool("ooc", false);
  spec.ooc_shard_bytes =
      static_cast<uint64_t>(request.GetNumber("shard_bytes", 0));
  // Incremental recompute (DESIGN.md §2.12): warm-start from the newest
  // stored result of this algorithm with these params on this mutable
  // graph.
  const bool incremental = request.GetBool("incremental", false);
  bool cold_warm_start = false;
  if (incremental) {
    if (dyn == nullptr) {
      return ErrorResponse("failed_precondition",
                           "graph '" + graph_name +
                               "' does not accept mutations, so there is "
                               "nothing to recompute incrementally");
    }
    std::lock_guard<std::mutex> lock(dyn->mutex);
    if (const auto* prev = dyn->FindPrevious(spec.params); prev != nullptr) {
      spec.warm_start = prev->payload;
      spec.previous_version = prev->version;
      spec.delta = &dyn->delta;
      spec.delta_mutex = &dyn->mutex;
    } else {
      // First run of this algorithm: full recompute, reported as a
      // fallback in the POLL response (the scheduler never saw the ask).
      cold_warm_start = true;
    }
  }
  serve::JobParams store_key =
      dyn != nullptr ? spec.params : serve::JobParams{};
  const uint64_t estimate = serve::EstimateJobDeviceBytes(spec);

  // Trace-context propagation (DESIGN.md §2.14).  The wire job id is
  // minted *before* Submit — it used to be minted after, so the id on the
  // wire could never be correlated with the spans the scheduler had
  // already emitted for the job.  A client-supplied "trace_id" (hex) is
  // adopted; otherwise the server is the outermost layer and mints one.
  const uint64_t job_id = conn->next_job_id++;
  uint64_t trace_id = trace::ParseTraceIdHex(request.GetString("trace_id", ""));
  if (trace_id == 0) trace_id = trace::MintTraceId();
  spec.trace_id = trace_id;
  spec.wire_job_id = job_id;
  if (scheduler_->flight_recorder()->enabled()) {
    spec.capture = std::make_shared<trace::SpanCapture>();
  }
  // Installed for the rest of this handler: the admit span below is
  // stamped with the job's identity and lands in its capture, putting the
  // wire layer at the head of the span tree INSPECT returns.
  trace::ScopedTraceContext trace_scope(
      trace::TraceContext{trace_id, job_id, 0, spec.capture});

  trace::Span admit_span(conn->trace_track, "admit", "net");
  admit_span.ArgNum("estimated_bytes", estimate);
  if (conn->quotas_enforced) {
    QuotaReject reason = QuotaReject::kNone;
    Status quota = tenants_.Admit(conn->tenant, estimate, &reason);
    if (!quota.ok()) {
      submits_rejected_quota_.fetch_add(1);
      MetricsFor(conn->tenant)->rejected_quota->Increment();
      Json response = ErrorResponse(quota);
      response.Set("reason", std::string(QuotaRejectName(reason)));
      return response;
    }
  }
  auto submitted = scheduler_->Submit(std::move(spec));
  admit_span.End();
  if (!submitted.ok()) {
    if (conn->quotas_enforced) tenants_.Release(conn->tenant, estimate);
    submits_rejected_scheduler_.fetch_add(1);
    return ErrorResponse(submitted.status());
  }
  PendingJob pending;
  pending.future = std::move(*submitted);
  pending.charged = conn->quotas_enforced;
  pending.charged_bytes = estimate;
  pending.dynamic_graph = dyn != nullptr ? graph_name : "";
  pending.params = std::move(store_key);
  pending.snapshot_version = snapshot_version;
  pending.incremental_requested = incremental;
  pending.cold_warm_start = cold_warm_start;
  conn->jobs.emplace(job_id, std::move(pending));
  submits_accepted_.fetch_add(1);
  MetricsFor(conn->tenant)->accepted->Increment();

  Json response = Json::MakeObject();
  response.Set("ok", true);
  response.Set("job", job_id);
  response.Set("trace_id", trace::TraceIdHex(trace_id));
  response.Set("estimated_bytes", estimate);
  std::string tag = request.GetString("tag", "");
  if (!tag.empty()) response.Set("tag", tag);
  return response;
}

const Server::DynamicGraph::PreviousResult*
Server::DynamicGraph::FindPrevious(const serve::JobParams& params) const {
  for (const PreviousResult& prev : previous) {
    if (prev.params == params) return &prev;
  }
  return nullptr;
}

void Server::DynamicGraph::StorePrevious(const serve::JobParams& params,
                                         const serve::JobPayload& payload,
                                         uint64_t version) {
  auto slot = std::find_if(
      previous.begin(), previous.end(),
      [&](const PreviousResult& prev) { return prev.params == params; });
  if (slot == previous.end()) {
    if (previous.size() < kMaxWarmStarts) {
      slot = previous.emplace(previous.end());
    } else {
      slot = std::min_element(previous.begin(), previous.end(),
                              [](const PreviousResult& a,
                                 const PreviousResult& b) {
                                return a.version < b.version;
                              });
    }
    slot->params = params;
  } else if (version < slot->version) {
    return;
  }
  slot->payload = std::make_shared<const serve::JobPayload>(payload);
  slot->version = version;
}

void Server::ReleaseCharge(const std::string& tenant, PendingJob* job) {
  if (!job->charged) return;
  job->charged = false;
  tenants_.Release(tenant, job->charged_bytes);
}

void Server::RefreshPendingJob(Connection* conn, uint64_t job_id,
                               PendingJob* job) {
  (void)job_id;
  if (job->done || !job->future.valid()) return;
  if (job->future.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    return;
  }
  job->outcome = job->future.get();
  job->done = true;
  ReleaseCharge(conn->tenant, job);
  if (job->outcome.status.ok() && !job->dynamic_graph.empty()) {
    // Seed the mutable graph's warm-start store: this payload becomes the
    // `previous` of the next `"incremental": true` submit.  Warm-started
    // jobs compute on the delta's snapshot at execution time, so their
    // outcome carries the authoritative version; full runs correspond to
    // the snapshot published at submit.
    auto dyn_it = dynamic_.find(job->dynamic_graph);
    if (dyn_it != dynamic_.end()) {
      DynamicGraph* dyn = dyn_it->second.get();
      const uint64_t version = job->outcome.incremental_requested
                                   ? job->outcome.result_version
                                   : job->snapshot_version;
      std::lock_guard<std::mutex> lock(dyn->mutex);
      dyn->StorePrevious(job->params, job->outcome.payload, version);
    }
  }
}

Json Server::HandlePoll(Connection* conn, const Json& request) {
  if (!conn->hello_done) {
    protocol_errors_.fetch_add(1);
    metric_protocol_errors_->Increment();
    return ErrorResponse("invalid_argument", "HELLO must come first");
  }
  const uint64_t job_id = static_cast<uint64_t>(request.GetNumber("job", 0));
  auto it = conn->jobs.find(job_id);
  if (it == conn->jobs.end()) {
    return ErrorResponse("not_found",
                         "unknown job " + std::to_string(job_id) +
                             " (never submitted, or already delivered)");
  }
  PendingJob& job = it->second;
  RefreshPendingJob(conn, job_id, &job);
  if (job.cancelled) {
    // Deterministic terminal report: a POLL after CANCEL always delivers
    // status "cancelled" and consumes the job id, whether or not the
    // scheduler resolved the job in the meantime — the response no longer
    // races the worker/reaper.  A still-charged future is handed to the
    // orphan reaper so the tenant's quota releases when it resolves.
    if (!job.done && job.charged) {
      jobs_orphaned_.fetch_add(1);
      conn->shard->orphans.push_back(
          OrphanJob{conn->tenant, job.charged_bytes, std::move(job.future)});
      job.charged = false;
    }
    Json response = Json::MakeObject();
    response.Set("ok", true);
    response.Set("done", true);
    response.Set("job", job_id);
    response.Set("cancelled", true);
    response.Set("status",
                 std::string(WireStatusName(StatusCode::kCancelled)));
    conn->jobs.erase(it);
    return response;
  }
  if (!job.done) {
    Json response = Json::MakeObject();
    response.Set("ok", true);
    response.Set("done", false);
    response.Set("job", job_id);
    return response;
  }
  Json response = OutcomeToJson(job.outcome);
  response.Set("job", job_id);
  if (job.incremental_requested && job.cold_warm_start) {
    // The scheduler ran a plain full job (no previous result existed);
    // report the fallback here so the ask is never silently absorbed.
    response.Set("incremental", false);
    response.Set("fallback_reason", "no previous result to warm-start from");
    response.Set("version", job.snapshot_version);
  }
  if (job.outcome.status.IsDeadlineExceeded()) {
    MetricsFor(conn->tenant)->shed_wire->Increment();
  }
  // Delivered-once semantics: the outcome's memory is freed now; a second
  // POLL of the same id reports not_found.
  conn->jobs.erase(it);
  return response;
}

Json Server::HandleCancel(Connection* conn, const Json& request) {
  if (!conn->hello_done) {
    protocol_errors_.fetch_add(1);
    metric_protocol_errors_->Increment();
    return ErrorResponse("invalid_argument", "HELLO must come first");
  }
  const uint64_t job_id = static_cast<uint64_t>(request.GetNumber("job", 0));
  auto it = conn->jobs.find(job_id);
  if (it == conn->jobs.end()) {
    return ErrorResponse("not_found", "unknown job " + std::to_string(job_id));
  }
  PendingJob& job = it->second;
  RefreshPendingJob(conn, job_id, &job);
  // The scheduler has no preemption: CANCEL is a server-side mark.  The
  // outcome (when it lands) is still delivered, flagged `cancelled`.
  job.cancelled = true;
  Json response = Json::MakeObject();
  response.Set("ok", true);
  response.Set("job", job_id);
  response.Set("done", job.done);
  response.Set("cancelled", true);
  return response;
}

Json Server::HandleMutate(Connection* conn, const Json& request) {
  if (!conn->hello_done) {
    protocol_errors_.fetch_add(1);
    metric_protocol_errors_->Increment();
    return ErrorResponse("invalid_argument", "HELLO must come first");
  }
  std::string graph_name = request.GetString("graph", "default");
  if (graphs_.find(graph_name) == graphs_.end()) {
    return ErrorResponse("not_found", "unknown graph '" + graph_name + "'");
  }
  auto dyn_it = dynamic_.find(graph_name);
  if (dyn_it == dynamic_.end()) {
    return ErrorResponse(
        "failed_precondition",
        "graph '" + graph_name + "' does not accept mutations");
  }

  std::vector<graph::EdgeUpdate> updates;
  const Json* updates_json = request.Find("updates");
  if (updates_json != nullptr && !updates_json->is_null()) {
    if (!updates_json->is_array()) {
      return ErrorResponse("invalid_argument", "'updates' must be an array");
    }
    updates.reserve(updates_json->size());
    for (const Json& item : updates_json->items()) {
      if (!item.is_object()) {
        return ErrorResponse("invalid_argument",
                             "each update must be an object");
      }
      std::string kind = item.GetString("op", "add");
      graph::EdgeUpdate update;
      if (kind == "add" || kind == "insert") {
        update.insert = true;
      } else if (kind == "del" || kind == "delete" || kind == "remove") {
        update.insert = false;
      } else {
        return ErrorResponse("invalid_argument",
                             "update op must be add or del, got '" + kind +
                                 "'");
      }
      update.u = static_cast<graph::vid_t>(item.GetNumber("u", 0));
      update.v = static_cast<graph::vid_t>(item.GetNumber("v", 0));
      update.w = item.GetNumber("w", 1);
      updates.push_back(update);
    }
  }
  const bool compact = request.GetBool("compact", false);

  trace::Span mutate_span(conn->trace_track, "mutate", "net");
  mutate_span.ArgNum("updates", static_cast<uint64_t>(updates.size()));
  DynamicGraph* dynamic = dyn_it->second.get();
  uint64_t applied = 0;
  uint64_t version = 0;
  uint64_t num_edges = 0;
  uint64_t fingerprint = 0;
  {
    std::lock_guard<std::mutex> lock(dynamic->mutex);
    auto applied_result = dynamic->delta.Apply(updates);
    if (!applied_result.ok()) return ErrorResponse(applied_result.status());
    applied = *applied_result;
    if (compact) {
      Status compacted = dynamic->delta.Compact();
      if (!compacted.ok()) return ErrorResponse(compacted);
    }
    // Bound per-graph history; incremental windows beyond this fall back
    // to full recompute anyway.
    dynamic->delta.TrimHistory(64 * 1024);
    auto snapshot = dynamic->delta.Snapshot();
    if (!snapshot.ok()) return ErrorResponse(snapshot.status());
    dynamic->snapshot = std::move(*snapshot);
    version = dynamic->delta.version();
    num_edges = dynamic->delta.num_edges();
    fingerprint = dynamic->delta.family_fingerprint();
  }
  if (applied > 0) {
    // Doom resident copies of older epochs of this family on every worker
    // so no post-mutation job is served a stale device graph (§2.12).
    scheduler_->InvalidateResidency(fingerprint, version);
    mutations_applied_.fetch_add(applied);
  }

  Json response = Json::MakeObject();
  response.Set("ok", true);
  response.Set("graph", graph_name);
  response.Set("applied", applied);
  response.Set("version", version);
  response.Set("num_edges", num_edges);
  response.Set("fingerprint", FingerprintHex(fingerprint));
  if (compact) response.Set("compacted", true);
  return response;
}

Json Server::HandleStats(Connection* conn, const Json& request) {
  (void)conn;
  (void)request;
  prof::ServerStats stats = scheduler_->Snapshot();
  Json jobs = Json::MakeObject();
  jobs.Set("submitted", stats.jobs_submitted);
  jobs.Set("completed", stats.jobs_completed);
  jobs.Set("failed", stats.jobs_failed);
  jobs.Set("rejected_admission", stats.jobs_rejected_admission);
  jobs.Set("rejected_backpressure", stats.jobs_rejected_backpressure);
  jobs.Set("shed_deadline", stats.jobs_shed_deadline);
  jobs.Set("queued", stats.jobs_queued);
  jobs.Set("running", stats.jobs_running);
  jobs.Set("jobs_per_sec", stats.jobs_per_sec);

  ServerCounters counters = Counters();
  Json server = Json::MakeObject();
  server.Set("sessions_open", static_cast<uint64_t>(live_sessions_.load()));
  server.Set("sessions_opened", counters.sessions_opened);
  server.Set("requests", counters.requests);
  server.Set("protocol_errors", counters.protocol_errors);
  server.Set("submits_accepted", counters.submits_accepted);
  server.Set("submits_rejected_quota", counters.submits_rejected_quota);
  server.Set("mutations_applied", counters.mutations_applied);

  Json tenants = Json::MakeArray();
  for (const TenantConfig& config : tenants_.Configs()) {
    TenantTable::Usage usage = tenants_.GetUsage(config.name);
    Json entry = Json::MakeObject();
    entry.Set("name", config.name);
    entry.Set("priority", static_cast<uint64_t>(config.priority));
    entry.Set("admitted", usage.admitted);
    entry.Set("rejected_rate", usage.rejected_rate);
    entry.Set("rejected_concurrent", usage.rejected_concurrent);
    entry.Set("rejected_bytes", usage.rejected_bytes);
    entry.Set("inflight_jobs", static_cast<uint64_t>(usage.inflight_jobs));
    entry.Set("inflight_bytes", usage.inflight_bytes);
    if (config.rate_per_sec > 0) entry.Set("tokens", usage.tokens);
    tenants.PushBack(std::move(entry));
  }

  Json response = Json::MakeObject();
  response.Set("ok", true);
  response.Set("jobs", std::move(jobs));
  response.Set("server", std::move(server));
  response.Set("tenants", std::move(tenants));
  return response;
}

Json Server::HandleInspect(Connection* conn, const Json& request) {
  (void)conn;
  const serve::FlightRecorder* recorder = scheduler_->flight_recorder();
  if (!recorder->enabled()) {
    return ErrorResponse("unavailable",
                         "the flight recorder is disabled on this pool");
  }
  // Lookup forms (any one of): "job" = the SUBMIT-returned wire id,
  // "sched_job_id" = the scheduler's id, "trace_id" = the hex trace id.
  // With none of them, list every retained record (without span trees —
  // a follow-up INSPECT with an id fetches one tree).
  const uint64_t wire_id = static_cast<uint64_t>(request.GetNumber("job", 0));
  const uint64_t sched_id =
      static_cast<uint64_t>(request.GetNumber("sched_job_id", 0));
  const std::string trace_hex = request.GetString("trace_id", "");
  if (wire_id == 0 && sched_id == 0 && trace_hex.empty()) {
    Json records = Json::MakeArray();
    for (const auto& record : recorder->Records()) {
      records.PushBack(JobRecordToJson(*record, /*with_spans=*/false));
    }
    Json response = Json::MakeObject();
    response.Set("ok", true);
    response.Set("records", std::move(records));
    return response;
  }
  std::shared_ptr<const serve::FlightRecorder::JobRecord> record;
  if (wire_id != 0) {
    record = recorder->FindByWireId(wire_id);
  } else if (sched_id != 0) {
    record = recorder->FindBySchedId(sched_id);
  } else {
    const uint64_t trace_id = trace::ParseTraceIdHex(trace_hex);
    if (trace_id == 0) {
      return ErrorResponse("invalid_argument",
                           "malformed trace_id '" + trace_hex + "'");
    }
    record = recorder->FindByTraceId(trace_id);
  }
  if (record == nullptr) {
    return ErrorResponse(
        "not_found",
        "no retained flight record for that id (not among the worst, or "
        "already evicted)");
  }
  Json response = Json::MakeObject();
  response.Set("ok", true);
  response.Set("record", JobRecordToJson(*record, /*with_spans=*/true));
  return response;
}

void Server::DropConnection(Shard* shard, std::unique_ptr<Connection> conn) {
  for (auto& [job_id, job] : conn->jobs) {
    (void)job_id;
    if (job.done) continue;
    if (job.charged) {
      // The session died before its outcome: hand the quota charge to the
      // orphan reaper so it is released when the scheduler finishes the
      // job — reserved admission bytes never leak with the session.
      jobs_orphaned_.fetch_add(1);
      shard->orphans.push_back(
          OrphanJob{conn->tenant, job.charged_bytes, std::move(job.future)});
    }
    // Uncharged futures can simply be destroyed; the scheduler's promise
    // side tolerates an abandoned future.
  }
  if (conn->trace_track != 0) {
    trace::EmitInstant(conn->trace_track, "session-close", "net");
  }
  close(conn->fd);
  sessions_closed_.fetch_add(1);
  metric_sessions_closed_->Increment();
  metric_live_sessions_->Set(
      static_cast<double>(live_sessions_.fetch_sub(1) - 1));
}

void Server::ReapOrphans(Shard* shard, bool final) {
  for (auto it = shard->orphans.begin(); it != shard->orphans.end();) {
    const bool ready =
        final || !it->future.valid() ||
        it->future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready;
    if (!ready) {
      ++it;
      continue;
    }
    tenants_.Release(it->tenant, it->charged_bytes);
    it = shard->orphans.erase(it);
  }
}

}  // namespace adgraph::net

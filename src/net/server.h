#ifndef ADGRAPH_NET_SERVER_H_
#define ADGRAPH_NET_SERVER_H_

/// \file
/// TCP front door for `serve::Scheduler` (DESIGN.md §2.10).
///
/// Protocol: line-delimited JSON over a plain TCP socket, one session per
/// connection.  A session opens with HELLO (naming its tenant), then issues
/// SUBMIT / POLL / CANCEL / STATS requests; every request line gets exactly
/// one response line, in order.
///
/// Threading: one accept thread hands each new connection to one of a small
/// pool of handler shards, round-robin.  Each shard runs a poll(2) loop
/// over its connections plus a self-pipe for wakeups; a connection is owned
/// by exactly one shard thread for its whole life, so per-connection state
/// needs no locks.  Slow readers and slow-loris writers are handled by
/// buffering: requests accumulate in a per-connection input buffer until a
/// newline arrives (bounded by max_line_bytes), responses drain through an
/// output buffer under POLLOUT.
///
/// Tenancy: SUBMIT charges the tenant's token-bucket / concurrency / byte
/// quotas (TenantTable) *before* the scheduler sees the job, and the charge
/// is released when the outcome is delivered — or by the orphan reaper when
/// the session disconnects first, so a dropped connection never leaks
/// reserved admission bytes.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/csr.h"
#include "graph/delta.h"
#include "net/json.h"
#include "net/tenant.h"
#include "net/wire.h"
#include "obs/registry.h"
#include "serve/scheduler.h"
#include "util/status.h"

namespace adgraph::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (the bound port is readable via Server::port()).
  uint16_t port = 0;
  size_t handler_threads = 2;
  size_t max_line_bytes = kDefaultMaxLineBytes;
  /// Live-session cap; excess connections get one error line and a close.
  size_t max_sessions = 256;
  /// Tenant quota contracts.  Empty = open access: any HELLO tenant name is
  /// accepted with no quotas (jobs still pass scheduler admission).
  std::vector<TenantConfig> tenants;
};

/// Aggregate request counters (atomics snapshot; also exported as obs
/// series on the scheduler's registry).
struct ServerCounters {
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t requests = 0;
  uint64_t protocol_errors = 0;
  uint64_t lines_oversized = 0;
  uint64_t submits_accepted = 0;
  uint64_t submits_rejected_quota = 0;
  uint64_t submits_rejected_scheduler = 0;
  uint64_t jobs_orphaned = 0;
  uint64_t mutations_applied = 0;
};

class Server {
 public:
  /// Graphs a SUBMIT may name (request field "graph"; "default" when
  /// absent).  Shared-const, so sessions and workers share them freely.
  using GraphMap = std::map<std::string, std::shared_ptr<const graph::CsrGraph>>;

  /// Binds, listens and starts the accept + handler threads.  The
  /// scheduler must outlive the returned server.
  static Result<std::unique_ptr<Server>> Start(serve::Scheduler* scheduler,
                                               GraphMap graphs,
                                               ServerOptions options);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (resolves port 0 to the kernel's pick).
  uint16_t port() const { return port_; }

  /// Stops accepting, closes every session (flushing pending output
  /// best-effort), releases all outstanding tenant charges and joins the
  /// threads.  Idempotent; the destructor calls it.  Jobs already handed
  /// to the scheduler keep running there — drain the scheduler afterwards.
  void Shutdown();

  ServerCounters Counters() const;
  TenantTable* tenants() { return &tenants_; }

 private:
  struct Shard;

  /// One job a session has in flight: the scheduler future plus the quota
  /// charge that must be released exactly once when the outcome lands.
  struct PendingJob {
    std::future<serve::JobOutcome> future;
    uint64_t charged_bytes = 0;
    bool charged = false;
    bool cancelled = false;
    bool done = false;
    serve::JobOutcome outcome;
    /// Non-empty when the job ran on a mutable graph: the name whose
    /// warm-start store a successful outcome seeds (DESIGN.md §2.12).
    std::string dynamic_graph;
    /// The job's params: the key of the warm-start entry it seeds.
    serve::JobParams params;
    /// Delta version of the snapshot the job was submitted against.
    uint64_t snapshot_version = 0;
    bool incremental_requested = false;
    /// Incremental was asked for but no previous result existed; the
    /// scheduler ran a plain full job, and POLL reports the fallback.
    bool cold_warm_start = false;
  };

  struct Connection {
    int fd = -1;
    uint64_t session_id = 0;
    bool hello_done = false;
    std::string tenant;
    /// Effective contract (configured tenant's, or defaults in open
    /// access); priority/weight/deadline are stamped from here.
    TenantConfig contract;
    bool quotas_enforced = false;
    std::string inbuf;
    std::string outbuf;
    /// Close once outbuf drains (set after a fatal protocol error).
    bool drop_after_flush = false;
    uint64_t next_job_id = 1;
    std::map<uint64_t, PendingJob> jobs;
    uint64_t trace_track = 0;  ///< lazily registered when tracing is on
    /// Owning shard; lets request handlers orphan a still-charged future
    /// (POLL on a cancelled job) without waiting for the session to die.
    Shard* shard = nullptr;
  };

  /// A job whose session died before its outcome arrived; the reaper polls
  /// the future and releases the tenant charge when it resolves.
  struct OrphanJob {
    std::string tenant;
    uint64_t charged_bytes = 0;
    std::future<serve::JobOutcome> future;
  };

  /// One handler thread's world.  `incoming` is the only cross-thread
  /// surface (accept thread pushes, handler adopts); everything else is
  /// owned by the shard thread.
  struct Shard {
    std::thread thread;
    int wake_fds[2] = {-1, -1};  ///< self-pipe: [0] read, [1] write
    std::mutex mutex;
    std::vector<int> incoming;
    std::vector<std::unique_ptr<Connection>> connections;
    std::vector<OrphanJob> orphans;
  };

  /// Lazily-registered per-tenant obs handles (server-side series).
  struct TenantMetrics {
    obs::Counter* accepted = nullptr;
    obs::Counter* rejected_quota = nullptr;
    obs::Counter* shed_wire = nullptr;  ///< deadline_exceeded outcomes served
  };

  Server(serve::Scheduler* scheduler, GraphMap graphs, ServerOptions options);

  Status Listen();
  void RegisterMetrics();
  void AcceptLoop();
  void HandlerLoop(Shard* shard);
  void AdoptIncoming(Shard* shard);
  void WakeShard(Shard* shard);

  /// Drains readable bytes into the connection's input buffer and handles
  /// complete lines.  False = the connection must be dropped.
  bool HandleReadable(Connection* conn);
  /// Flushes as much of outbuf as the socket accepts.  False = drop.
  bool FlushOutput(Connection* conn);
  void ProcessBufferedLines(Connection* conn);

  Json HandleRequest(Connection* conn, const std::string& line);
  Json HandleHello(Connection* conn, const Json& request);
  Json HandleSubmit(Connection* conn, const Json& request);
  Json HandlePoll(Connection* conn, const Json& request);
  Json HandleCancel(Connection* conn, const Json& request);
  Json HandleMutate(Connection* conn, const Json& request);
  Json HandleStats(Connection* conn, const Json& request);
  Json HandleInspect(Connection* conn, const Json& request);

  /// Checks a pending job's future without blocking; moves the outcome in
  /// and releases the quota charge once, the first time it is ready.
  void RefreshPendingJob(Connection* conn, uint64_t job_id, PendingJob* job);
  void ReleaseCharge(const std::string& tenant, PendingJob* job);

  void DropConnection(Shard* shard, std::unique_ptr<Connection> conn);
  /// Releases charges of orphaned jobs whose futures resolved; `final`
  /// releases everything unconditionally (server teardown).
  void ReapOrphans(Shard* shard, bool final);

  TenantMetrics* MetricsFor(const std::string& tenant);

  /// Mutable state of one served graph: the delta layered over the start-up
  /// base, plus the published snapshot SUBMIT reads.  Mutations serialize on
  /// the per-graph mutex; submits only copy the snapshot pointer under it.
  struct DynamicGraph {
    std::mutex mutex;
    graph::DeltaGraph delta;
    std::shared_ptr<const graph::CsrGraph> snapshot;
    /// Warm-start source of `"incremental": true` submits: the newest
    /// successful payload per algorithm and params (a BFS from A never
    /// warm-starts a BFS from B) and the delta version it corresponds to.
    /// Guarded by `mutex`; seeded by every successful job on this graph.
    struct PreviousResult {
      serve::JobParams params;
      std::shared_ptr<const serve::JobPayload> payload;
      uint64_t version = 0;
    };
    /// At most kMaxWarmStarts entries; a new key replaces the oldest.
    static constexpr size_t kMaxWarmStarts = 16;
    std::vector<PreviousResult> previous;

    /// The entry computed with exactly `params`, or null.
    const PreviousResult* FindPrevious(const serve::JobParams& params) const;
    /// Records `payload` (computed at `version`) under `params` unless a
    /// newer result for the same params is already stored.
    void StorePrevious(const serve::JobParams& params,
                       const serve::JobPayload& payload, uint64_t version);
  };

  serve::Scheduler* scheduler_;
  GraphMap graphs_;
  /// Per-name mutation state; a graph missing here (non-normal-form base)
  /// stays static and MUTATE on it is failed_precondition.
  std::map<std::string, std::unique_ptr<DynamicGraph>> dynamic_;
  ServerOptions options_;
  TenantTable tenants_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  int accept_wake_fds_[2] = {-1, -1};
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stopping_{false};
  bool shutdown_done_ = false;
  std::mutex shutdown_mutex_;

  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<size_t> live_sessions_{0};

  // Counters (relaxed atomics; snapshot via Counters()).
  std::atomic<uint64_t> sessions_opened_{0};
  std::atomic<uint64_t> sessions_closed_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> lines_oversized_{0};
  std::atomic<uint64_t> submits_accepted_{0};
  std::atomic<uint64_t> submits_rejected_quota_{0};
  std::atomic<uint64_t> submits_rejected_scheduler_{0};
  std::atomic<uint64_t> jobs_orphaned_{0};
  std::atomic<uint64_t> mutations_applied_{0};

  // obs handles on the scheduler's registry (stable pointers).
  obs::Counter* metric_sessions_opened_ = nullptr;
  obs::Counter* metric_sessions_closed_ = nullptr;
  obs::Counter* metric_requests_ = nullptr;
  obs::Counter* metric_protocol_errors_ = nullptr;
  obs::Gauge* metric_live_sessions_ = nullptr;
  std::mutex tenant_metrics_mutex_;
  std::map<std::string, TenantMetrics> tenant_metrics_;
};

}  // namespace adgraph::net

#endif  // ADGRAPH_NET_SERVER_H_

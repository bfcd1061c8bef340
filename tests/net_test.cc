// Tests of the src/net/ TCP front door: JSON parse/dump, tenant config and
// quota accounting, wire param mapping, and a live loopback server —
// including the protocol-robustness paths (malformed / truncated /
// oversized request lines, mid-request disconnect, slow-loris partial
// writes) that must fail with a structured error or a session drop without
// leaking reserved admission bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/csr.h"
#include "graph/generate.h"
#include "ooc/ooc_csr.h"
#include "net/client.h"
#include "net/json.h"
#include "net/server.h"
#include "net/tenant.h"
#include "net/wire.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "trace/trace.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph::net {
namespace {

using graph::CsrGraph;

std::shared_ptr<const CsrGraph> TestGraph(uint32_t scale = 7) {
  auto coo = graph::GenerateRmat({.scale = scale, .edge_factor = 8.0,
                                  .seed = 42}).value();
  graph::AttachRandomWeights(&coo, 0.1, 1.0, 7);
  graph::CsrBuildOptions options;
  options.remove_duplicates = true;
  options.remove_self_loops = true;
  options.make_undirected = true;
  return std::make_shared<const CsrGraph>(
      CsrGraph::FromCoo(coo, options).value());
}

// --- JSON ------------------------------------------------------------------

TEST(JsonTest, ParseDumpRoundTrip) {
  const std::string text =
      R"({"op":"SUBMIT","n":3,"f":1.5,"neg":-2,"flag":true,"nil":null,)"
      R"("arr":[1,"two",false],"nested":{"k":"v"}})";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), text);  // insertion order is preserved
  EXPECT_EQ(parsed->GetString("op", ""), "SUBMIT");
  EXPECT_EQ(parsed->GetNumber("n", 0), 3);
  EXPECT_EQ(parsed->GetNumber("f", 0), 1.5);
  EXPECT_TRUE(parsed->GetBool("flag", false));
  EXPECT_TRUE(parsed->Find("nil")->is_null());
  EXPECT_EQ(parsed->Find("arr")->size(), 3u);
  EXPECT_EQ(parsed->Find("nested")->GetString("k", ""), "v");
}

TEST(JsonTest, StringEscapesRoundTrip) {
  Json object = Json::MakeObject();
  object.Set("s", std::string("a\"b\\c\n\t\x01 ω"));
  auto reparsed = Json::Parse(object.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->GetString("s", ""), "a\"b\\c\n\t\x01 ω");
}

TEST(JsonTest, ParseUnicodeEscapes) {
  auto parsed = Json::Parse(R"({"s":"Aé 😀"})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("s", ""), "Aé \xF0\x9F\x98\x80");
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  const char* bad[] = {
      "",
      "{",
      "{\"a\":}",
      "{\"a\":1} trailing",
      "{\"a\" 1}",
      "[1,]",
      "{\"a\":01}",
      "\"unterminated",
      "{\"a\":\"raw\ncontrol\"}",
      "nul",
      "{\"a\":+1}",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(Json::Parse(text).ok()) << "accepted: " << text;
  }
  // Depth bomb: beyond the nesting cap.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonTest, IntegralNumbersPrintWithoutDecimalPoint) {
  Json object = Json::MakeObject();
  object.Set("i", static_cast<uint64_t>(42));
  object.Set("f", 2.5);
  EXPECT_EQ(object.Dump(), R"({"i":42,"f":2.5})");
}

// --- tenant config + quotas ------------------------------------------------

TEST(TenantTest, ParseByteSizeSuffixes) {
  EXPECT_EQ(ParseByteSize("512").value(), 512u);
  EXPECT_EQ(ParseByteSize("64K").value(), 64u * 1024);
  EXPECT_EQ(ParseByteSize("16M").value(), 16ull << 20);
  EXPECT_EQ(ParseByteSize("2G").value(), 2ull << 30);
  EXPECT_FALSE(ParseByteSize("").ok());
  EXPECT_FALSE(ParseByteSize("12Q").ok());
  EXPECT_FALSE(ParseByteSize("-3").ok());
}

TEST(TenantTest, ParseTenantConfigs) {
  auto configs = ParseTenantConfigs(
      "# fleet\n"
      "alpha rate=10 burst=20 concurrent=4 bytes=1G priority=0 weight=2.5\n"
      "\n"
      "beta priority=1 deadline_ms=250\n");
  ASSERT_TRUE(configs.ok()) << configs.status().ToString();
  ASSERT_EQ(configs->size(), 2u);
  EXPECT_EQ((*configs)[0].name, "alpha");
  EXPECT_EQ((*configs)[0].rate_per_sec, 10);
  EXPECT_EQ((*configs)[0].burst, 20);
  EXPECT_EQ((*configs)[0].max_concurrent, 4u);
  EXPECT_EQ((*configs)[0].max_inflight_bytes, 1ull << 30);
  EXPECT_EQ((*configs)[0].weight, 2.5);
  EXPECT_EQ((*configs)[1].priority, 1u);
  EXPECT_EQ((*configs)[1].default_deadline_ms, 250);

  EXPECT_FALSE(ParseTenantConfigs("alpha turbo=9").ok());  // unknown key
  EXPECT_FALSE(ParseTenantConfigs("a rate=1\na rate=2").ok());  // duplicate
  EXPECT_FALSE(ParseTenantConfigs("a rate=fast").ok());
}

TEST(TenantTest, TokenBucketRefillsLazily) {
  TenantTable table({{.name = "a", .rate_per_sec = 2.0, .burst = 2.0}});
  QuotaReject reason = QuotaReject::kNone;
  EXPECT_TRUE(table.AdmitAt("a", 0, 0.0).ok());
  EXPECT_TRUE(table.AdmitAt("a", 0, 0.0).ok());
  Status third = table.AdmitAt("a", 0, 0.0, &reason);
  EXPECT_TRUE(third.IsResourceExhausted()) << third.ToString();
  EXPECT_EQ(reason, QuotaReject::kRate);
  // Half a second refills one token at 2/s.
  EXPECT_TRUE(table.AdmitAt("a", 0, 0.5).ok());
  EXPECT_FALSE(table.AdmitAt("a", 0, 0.5).ok());
  // A backwards clock must not mint tokens.
  EXPECT_FALSE(table.AdmitAt("a", 0, 0.1).ok());
  auto usage = table.GetUsage("a");
  EXPECT_EQ(usage.admitted, 3u);
  EXPECT_EQ(usage.rejected_rate, 3u);
}

TEST(TenantTest, ConcurrentAndByteCapsChargeAndRelease) {
  TenantTable table({{.name = "a",
                      .max_concurrent = 2,
                      .max_inflight_bytes = 1000}});
  QuotaReject reason = QuotaReject::kNone;
  EXPECT_TRUE(table.Admit("a", 600).ok());
  EXPECT_TRUE(table.Admit("a", 300, &reason).ok());
  // Third job would be within bytes but over the concurrency cap.
  EXPECT_FALSE(table.Admit("a", 10, &reason).ok());
  EXPECT_EQ(reason, QuotaReject::kConcurrent);
  table.Release("a", 300);
  // Now under the job cap but 600 + 500 busts the byte cap.
  EXPECT_FALSE(table.Admit("a", 500, &reason).ok());
  EXPECT_EQ(reason, QuotaReject::kBytes);
  EXPECT_TRUE(table.Admit("a", 400).ok());
  auto usage = table.GetUsage("a");
  EXPECT_EQ(usage.inflight_jobs, 2u);
  EXPECT_EQ(usage.inflight_bytes, 1000u);
  // Releases pair off; over-release clamps instead of wrapping.
  table.Release("a", 600);
  table.Release("a", 400);
  table.Release("a", 999);
  usage = table.GetUsage("a");
  EXPECT_EQ(usage.inflight_jobs, 0u);
  EXPECT_EQ(usage.inflight_bytes, 0u);
}

TEST(TenantTest, UnknownTenantRejected) {
  TenantTable table({{.name = "a"}});
  QuotaReject reason = QuotaReject::kNone;
  Status status = table.Admit("nobody", 0, &reason);
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(reason, QuotaReject::kUnknownTenant);
}

// --- wire ------------------------------------------------------------------

TEST(WireTest, StatusNamesAreSnakeCase) {
  EXPECT_EQ(WireStatusName(StatusCode::kOk), "ok");
  EXPECT_EQ(WireStatusName(StatusCode::kDeadlineExceeded),
            "deadline_exceeded");
  EXPECT_EQ(WireStatusName(StatusCode::kResourceExhausted),
            "resource_exhausted");
}

TEST(WireTest, BuildJobParamsRejectsMalformedNumbers) {
  std::map<std::string, std::string> kv{{"source", "banana"}};
  auto params = serve::Algorithm::kBfs;
  EXPECT_TRUE(BuildJobParams(params, kv, 100).status().IsInvalidArgument());
  kv["source"] = "12";
  EXPECT_TRUE(BuildJobParams(params, kv, 100).ok());
}

TEST(WireTest, JobParamsFromJsonAcceptsNumbersStringsBools) {
  auto request = Json::Parse(R"({"source":5,"symmetric":true})").value();
  auto params =
      JobParamsFromJson(serve::Algorithm::kBfs, &request, 100).value();
  EXPECT_EQ(std::get<core::BfsOptions>(params).source, 5u);
  EXPECT_TRUE(std::get<core::BfsOptions>(params).assume_symmetric);

  auto bad = Json::Parse(R"({"source":[1]})").value();
  EXPECT_FALSE(JobParamsFromJson(serve::Algorithm::kBfs, &bad, 100).ok());
}

// --- loopback server -------------------------------------------------------

struct LiveServer {
  std::unique_ptr<serve::Scheduler> scheduler;
  std::unique_ptr<Server> server;
};

LiveServer StartServer(std::shared_ptr<const CsrGraph> g,
                       std::vector<TenantConfig> tenants = {},
                       double floor_ms = 0,
                       size_t max_line_bytes = kDefaultMaxLineBytes) {
  serve::Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  options.queue_capacity = 64;
  options.device_occupancy_floor_ms = floor_ms;
  LiveServer live;
  live.scheduler = std::move(serve::Scheduler::Create(std::move(options))
                                 .value());
  ServerOptions server_options;
  server_options.tenants = std::move(tenants);
  server_options.max_line_bytes = max_line_bytes;
  Server::GraphMap graphs;
  graphs["default"] = std::move(g);
  live.server = std::move(
      Server::Start(live.scheduler.get(), std::move(graphs), server_options)
          .value());
  return live;
}

TEST(ServerTest, SubmitOverTcpMatchesInProcessFingerprint) {
  auto g = TestGraph();
  auto live = StartServer(g);
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  auto hello = client.Hello("anyone").value();
  EXPECT_EQ(hello.GetNumber("proto", 0), kProtocolVersion);

  auto request = Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":3,"symmetric":1},)"
      R"("tag":"t1"})").value();
  auto submitted = client.Call(request).value();
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  auto done = client.WaitJob(
      static_cast<uint64_t>(submitted.GetNumber("job", 0))).value();
  EXPECT_EQ(done.GetString("status", ""), "ok");
  EXPECT_EQ(done.GetString("tag", ""), "t1");

  // In-process reference: identical params through the same registry
  // handler on a fresh device must fingerprint-match the wire result.
  serve::JobSpec spec;
  spec.graph = g;
  spec.params = BuildJobParams(serve::Algorithm::kBfs,
                               {{"source", "3"}, {"symmetric", "1"}},
                               g->num_vertices())
                    .value();
  vgpu::Device device(vgpu::A100Config());
  auto payload =
      serve::GetHandler(serve::Algorithm::kBfs).run(&device, spec, nullptr)
          .value();
  EXPECT_EQ(done.GetString("fingerprint", ""),
            FingerprintHex(serve::FingerprintPayload(payload)));

  // Delivered-once: a second POLL for the same id is an error.
  Json poll = Json::MakeObject();
  poll.Set("op", "POLL");
  poll.Set("job", submitted.GetNumber("job", 0));
  auto repoll = client.Call(poll).value();
  EXPECT_FALSE(repoll.GetBool("ok", true));
  EXPECT_EQ(repoll.GetString("code", ""), "not_found");
}

TEST(ServerTest, HelloRejectsUnknownTenantAndDropsSession) {
  auto live = StartServer(TestGraph(), {{.name = "alpha"}});
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  EXPECT_TRUE(client.Hello("nobody").status().IsNotFound());
  // The server closes the session after the rejection line.
  auto next = client.ReadLine(2000);
  EXPECT_TRUE(next.status().IsUnavailable()) << next.status().ToString();
}

TEST(ServerTest, SubmitBeforeHelloRejected) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  auto response =
      client.Call(Json::Parse(R"({"op":"SUBMIT","algo":"bfs"})").value())
          .value();
  EXPECT_FALSE(response.GetBool("ok", true));
}

TEST(ServerTest, MalformedLineGetsStructuredErrorSessionSurvives) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.SendLine("{this is not json").ok());
  auto error = Json::Parse(client.ReadLine().value()).value();
  EXPECT_FALSE(error.GetBool("ok", true));
  EXPECT_EQ(error.GetString("code", ""), "invalid_argument");
  // The session is still usable afterwards.
  EXPECT_TRUE(client.Hello("x").ok());
  EXPECT_GE(live.server->Counters().protocol_errors, 1u);
}

TEST(ServerTest, OversizedLineGetsErrorThenDrop) {
  auto live = StartServer(TestGraph(), {}, 0, /*max_line_bytes=*/256);
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  std::string big = R"({"op":"HELLO","pad":")" + std::string(1024, 'x') +
                    "\"}";
  ASSERT_TRUE(client.SendLine(big).ok());
  auto error = Json::Parse(client.ReadLine().value()).value();
  EXPECT_FALSE(error.GetBool("ok", true));
  EXPECT_EQ(error.GetString("code", ""), "resource_exhausted");
  EXPECT_TRUE(client.ReadLine(2000).status().IsUnavailable());
  EXPECT_GE(live.server->Counters().lines_oversized, 1u);
}

TEST(ServerTest, OversizedPartialLineWithoutNewlineAlsoDropped) {
  // Slow-loris flavor: an endless request that never sends '\n' must be
  // cut off once it exceeds the line cap, not buffered forever.
  auto live = StartServer(TestGraph(), {}, 0, /*max_line_bytes=*/256);
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.SendRaw(std::string(4096, 'y')).ok());  // no newline
  auto error = Json::Parse(client.ReadLine().value()).value();
  EXPECT_EQ(error.GetString("code", ""), "resource_exhausted");
  EXPECT_TRUE(client.ReadLine(2000).status().IsUnavailable());
}

TEST(ServerTest, SlowLorisPartialWritesStillParse) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  const std::string request =
      R"({"op":"HELLO","proto":1,"tenant":"drip"})" "\n";
  for (size_t i = 0; i < request.size(); i += 5) {
    ASSERT_TRUE(client.SendRaw(request.substr(i, 5)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto response = Json::Parse(client.ReadLine().value()).value();
  EXPECT_TRUE(response.GetBool("ok", false)) << response.Dump();
  EXPECT_EQ(response.GetString("tenant", ""), "drip");
}

TEST(ServerTest, QuotaRejectionOnTheWireThenReleaseAdmits) {
  auto live = StartServer(TestGraph(), {{.name = "alpha", .max_concurrent = 1}},
                          /*floor_ms=*/40);
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("alpha").ok());
  auto request = Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":0}})").value();
  auto first = client.Call(request).value();
  ASSERT_TRUE(first.GetBool("ok", false)) << first.Dump();
  // Job 1 occupies the device for >= 40 ms, so this lands over the cap.
  auto second = client.Call(request).value();
  EXPECT_FALSE(second.GetBool("ok", true));
  EXPECT_EQ(second.GetString("code", ""), "resource_exhausted");
  EXPECT_EQ(second.GetString("reason", ""), "concurrent");
  // Delivering job 1's outcome releases the slot.
  auto done = client.WaitJob(
      static_cast<uint64_t>(first.GetNumber("job", 0))).value();
  EXPECT_EQ(done.GetString("status", ""), "ok");
  auto third = client.Call(request).value();
  EXPECT_TRUE(third.GetBool("ok", false)) << third.Dump();
  EXPECT_EQ(live.server->Counters().submits_rejected_quota, 1u);
}

TEST(ServerTest, MidRequestDisconnectReleasesCharges) {
  auto live = StartServer(TestGraph(),
                          {{.name = "alpha", .max_inflight_bytes = 1ull << 30}},
                          /*floor_ms=*/60);
  {
    auto client = Client::Connect("127.0.0.1", live.server->port()).value();
    ASSERT_TRUE(client.Hello("alpha").ok());
    auto submitted = client.Call(Json::Parse(
        R"({"op":"SUBMIT","algo":"bfs","params":{"source":0}})").value())
        .value();
    ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
    EXPECT_GT(live.server->tenants()->GetUsage("alpha").inflight_bytes, 0u);
    // Half a request, then vanish with the job still in flight.
    ASSERT_TRUE(client.SendRaw(R"({"op":"POLL","jo)").ok());
  }  // ~Client closes the socket
  // The orphan reaper must return the charge once the job resolves.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  TenantTable::Usage usage;
  while (std::chrono::steady_clock::now() < deadline) {
    usage = live.server->tenants()->GetUsage("alpha");
    if (usage.inflight_jobs == 0 && usage.inflight_bytes == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(usage.inflight_jobs, 0u);
  EXPECT_EQ(usage.inflight_bytes, 0u);
  EXPECT_GE(live.server->Counters().jobs_orphaned, 1u);
}

TEST(ServerTest, DeadlineShedReportedOnWire) {
  // One worker with a 50 ms occupancy floor: job 2's queue wait exceeds its
  // 1 ms deadline by the time a worker picks it up, so it is shed.
  auto live = StartServer(TestGraph(), {}, /*floor_ms=*/50);
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  auto blocker = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":0}})").value())
      .value();
  ASSERT_TRUE(blocker.GetBool("ok", false)) << blocker.Dump();
  auto doomed = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":1},)"
      R"("deadline_ms":1})").value()).value();
  ASSERT_TRUE(doomed.GetBool("ok", false)) << doomed.Dump();
  auto outcome = client.WaitJob(
      static_cast<uint64_t>(doomed.GetNumber("job", 0))).value();
  EXPECT_EQ(outcome.GetString("status", ""), "deadline_exceeded");
}

TEST(ServerTest, CancelMarksJobAndStatsReports) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  auto submitted = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"cc"})").value()).value();
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  Json cancel = Json::MakeObject();
  cancel.Set("op", "CANCEL");
  cancel.Set("job", submitted.GetNumber("job", 0));
  auto cancelled = client.Call(cancel).value();
  EXPECT_TRUE(cancelled.GetBool("ok", false)) << cancelled.Dump();
  EXPECT_TRUE(cancelled.GetBool("cancelled", false));

  auto stats = client.Call(Json::Parse(R"({"op":"STATS"})").value()).value();
  EXPECT_TRUE(stats.GetBool("ok", false)) << stats.Dump();
  ASSERT_NE(stats.Find("server"), nullptr);
  EXPECT_GE(stats.Find("server")->GetNumber("requests", 0), 3);
  ASSERT_NE(stats.Find("jobs"), nullptr);
}

// Regression: POLL after CANCEL used to race the orphan reaper — the
// response depended on whether the job had already resolved.  It must now be
// a deterministic terminal answer, independent of completion timing.
TEST(ServerTest, PollAfterCancelIsDeterministicTerminal) {
  auto live = StartServer(TestGraph(),
                          {{.name = "alpha", .max_inflight_bytes = 1ull << 30}},
                          /*floor_ms=*/40);
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("alpha").ok());
  auto submitted = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"cc"})").value()).value();
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  const uint64_t job_id =
      static_cast<uint64_t>(submitted.GetNumber("job", 0));

  Json cancel = Json::MakeObject();
  cancel.Set("op", "CANCEL");
  cancel.Set("job", job_id);
  ASSERT_TRUE(client.Call(cancel).value().GetBool("ok", false));

  // Immediately after CANCEL (the job may still be running): terminal.
  Json poll = Json::MakeObject();
  poll.Set("op", "POLL");
  poll.Set("job", job_id);
  auto response = client.Call(poll).value();
  EXPECT_TRUE(response.GetBool("ok", false)) << response.Dump();
  EXPECT_TRUE(response.GetBool("done", false))
      << "POLL after CANCEL must be terminal, not reaper-timing dependent";
  EXPECT_TRUE(response.GetBool("cancelled", false));
  EXPECT_EQ(response.GetString("status", ""), "cancelled");

  // Delivered-once semantics hold for the cancelled terminal too.
  auto repoll = client.Call(poll).value();
  EXPECT_FALSE(repoll.GetBool("ok", true));
  EXPECT_EQ(repoll.GetString("code", ""), "not_found");

  // The still-charged future is handed to the orphan reaper, which must
  // release the tenant's admission charge once the job resolves.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  TenantTable::Usage usage;
  while (std::chrono::steady_clock::now() < deadline) {
    usage = live.server->tenants()->GetUsage("alpha");
    if (usage.inflight_jobs == 0 && usage.inflight_bytes == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(usage.inflight_jobs, 0u);
  EXPECT_EQ(usage.inflight_bytes, 0u);
}

// --- MUTATE (dynamic graphs) ----------------------------------------------

TEST(ServerTest, MutateThenSubmitSeesFreshGraph) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());

  // Baseline result fingerprint on the pristine graph.
  auto request = Json::Parse(
      R"({"op":"SUBMIT","algo":"pagerank","params":{"max_iterations":30}})")
      .value();
  auto first = client.Call(request).value();
  ASSERT_TRUE(first.GetBool("ok", false)) << first.Dump();
  auto first_done = client.WaitJob(
      static_cast<uint64_t>(first.GetNumber("job", 0))).value();
  ASSERT_EQ(first_done.GetString("status", ""), "ok");
  const std::string before_fp = first_done.GetString("fingerprint", "");

  // Mutate: a batch of inserts, at least one of which must be novel.
  Json updates = Json::MakeArray();
  for (uint32_t v = 60; v < 68; ++v) {
    Json update = Json::MakeObject();
    update.Set("op", "add");
    update.Set("u", 0);
    update.Set("v", static_cast<double>(v));
    updates.PushBack(std::move(update));
  }
  auto mutated = client.Mutate("default", std::move(updates)).value();
  EXPECT_GT(mutated.GetNumber("applied", 0), 0) << mutated.Dump();
  EXPECT_GT(mutated.GetNumber("version", 0), 0);
  EXPECT_NE(mutated.GetString("fingerprint", ""), "");
  EXPECT_GE(live.server->Counters().mutations_applied, 1u);

  // A submit after the mutation must run on the new version.
  auto second = client.Call(request).value();
  ASSERT_TRUE(second.GetBool("ok", false)) << second.Dump();
  auto second_done = client.WaitJob(
      static_cast<uint64_t>(second.GetNumber("job", 0))).value();
  ASSERT_EQ(second_done.GetString("status", ""), "ok");
  EXPECT_NE(second_done.GetString("fingerprint", ""), before_fp)
      << "the job ran on the stale pre-mutation snapshot";
}

TEST(ServerTest, MutateErrorsAreStructured) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());

  // Unknown graph name.
  Json updates = Json::MakeArray();
  Json add = Json::MakeObject();
  add.Set("op", "add");
  add.Set("u", 0);
  add.Set("v", 1);
  updates.PushBack(std::move(add));
  auto unknown = client.Mutate("nope", std::move(updates));
  EXPECT_FALSE(unknown.ok());

  // Out-of-range vertex id: structured error, session survives.
  Json request = Json::MakeObject();
  request.Set("op", "MUTATE");
  request.Set("graph", "default");
  Json bad_updates = Json::MakeArray();
  Json bad = Json::MakeObject();
  bad.Set("op", "add");
  bad.Set("u", 0);
  bad.Set("v", static_cast<double>(1u << 30));
  bad_updates.PushBack(std::move(bad));
  request.Set("updates", std::move(bad_updates));
  auto response = client.Call(request).value();
  EXPECT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(response.GetString("code", ""), "out_of_range");
  EXPECT_TRUE(client.Call(Json::Parse(R"({"op":"STATS"})").value())
                  .value()
                  .GetBool("ok", false))
      << "the session must survive a rejected mutation";
}

TEST(ServerTest, MutateCompactFoldsTheDelta) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  Json updates = Json::MakeArray();
  Json add = Json::MakeObject();
  add.Set("op", "add");
  add.Set("u", 1);
  add.Set("v", 1);  // self loop: legal under the shared policy
  updates.PushBack(std::move(add));
  auto response =
      client.Mutate("default", std::move(updates), /*compact=*/true).value();
  EXPECT_TRUE(response.GetBool("compacted", false)) << response.Dump();
  EXPECT_EQ(response.GetNumber("applied", -1), 1);
}

// --- out-of-core + incremental on the wire ---------------------------------

TEST(ServerTest, OocSubmitStreamsOnWireAndMatchesInMemory) {
  auto g = TestGraph();
  // Budget the single device below the whole-graph PageRank working set but
  // above the streamed one (memory_scale *divides* the arch capacity).
  serve::JobSpec probe;
  probe.graph = g;
  core::PageRankOptions pr;
  pr.max_iterations = 12;
  probe.params = pr;
  const uint64_t full = serve::EstimateJobDeviceBytes(probe);
  const uint64_t streamed =
      ooc::EstimateStreamedBytes(serve::Algorithm::kPageRank,
                                 g->num_vertices(), g->has_weights(), 4096)
          .value();
  const uint64_t budget =
      std::max<uint64_t>(full * 3 / 5, streamed + streamed / 4);

  serve::Scheduler::Options options;
  serve::Scheduler::DeviceSlot slot;
  slot.arch = &vgpu::A100Config();
  slot.options.memory_scale =
      static_cast<double>(vgpu::A100Config().dram_capacity_bytes) /
      static_cast<double>(budget);
  options.devices = {slot};
  options.queue_capacity = 64;
  LiveServer live;
  live.scheduler =
      std::move(serve::Scheduler::Create(std::move(options)).value());
  Server::GraphMap graphs;
  graphs["default"] = g;
  live.server = std::move(
      Server::Start(live.scheduler.get(), std::move(graphs), {}).value());

  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());

  // Without the opt-in, the over-budget job is a hard admission reject.
  auto plain = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"pagerank","params":{"iters":12}})")
      .value()).value();
  ASSERT_TRUE(plain.GetBool("ok", false)) << plain.Dump();
  auto plain_done = client.WaitJob(
      static_cast<uint64_t>(plain.GetNumber("job", 0))).value();
  EXPECT_EQ(plain_done.GetString("status", ""), "resource_exhausted")
      << plain_done.Dump();

  // With "ooc": the same ask lands in the streamed tier and reports it.
  auto ooc = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"pagerank","params":{"iters":12},)"
      R"("ooc":true,"shard_bytes":4096})").value()).value();
  ASSERT_TRUE(ooc.GetBool("ok", false)) << ooc.Dump();
  auto done = client.WaitJob(
      static_cast<uint64_t>(ooc.GetNumber("job", 0))).value();
  ASSERT_EQ(done.GetString("status", ""), "ok") << done.Dump();
  EXPECT_TRUE(done.GetBool("streamed", false)) << done.Dump();
  EXPECT_GE(done.GetNumber("ooc_shards", 0), 2) << done.Dump();
  EXPECT_GT(done.GetNumber("ooc_staged_bytes", 0), 0) << done.Dump();

  // Byte-identical to the in-memory path on a full-size device.
  vgpu::Device roomy(vgpu::A100Config());
  auto payload = serve::GetHandler(serve::Algorithm::kPageRank)
                     .run(&roomy, probe, nullptr)
                     .value();
  EXPECT_EQ(done.GetString("fingerprint", ""),
            FingerprintHex(serve::FingerprintPayload(payload)));
}

TEST(ServerTest, IncrementalSubmitReportsPathOnWire) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  const std::string ask =
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":3},)"
      R"("incremental":true})";

  // Cold ask: no previous result of this algorithm exists yet, so a full
  // run happens and the response says why the warm start didn't.
  auto cold = client.Call(Json::Parse(ask).value()).value();
  ASSERT_TRUE(cold.GetBool("ok", false)) << cold.Dump();
  auto cold_done = client.WaitJob(
      static_cast<uint64_t>(cold.GetNumber("job", 0))).value();
  ASSERT_EQ(cold_done.GetString("status", ""), "ok") << cold_done.Dump();
  EXPECT_FALSE(cold_done.GetBool("incremental", true)) << cold_done.Dump();
  EXPECT_EQ(cold_done.GetString("fallback_reason", ""),
            "no previous result to warm-start from");
  EXPECT_EQ(cold_done.GetNumber("version", -1), 0) << cold_done.Dump();

  // Mutate: a small batch of inserts, well under the incremental
  // threshold; the cold run above seeded the previous-result store.
  Json updates = Json::MakeArray();
  for (uint32_t v = 60; v < 68; ++v) {
    Json update = Json::MakeObject();
    update.Set("op", "add");
    update.Set("u", 0);
    update.Set("v", static_cast<double>(v));
    updates.PushBack(std::move(update));
  }
  auto mutated = client.Mutate("default", std::move(updates)).value();
  ASSERT_GT(mutated.GetNumber("applied", 0), 0) << mutated.Dump();
  const double version = mutated.GetNumber("version", 0);

  // Warm ask: the delta path actually runs and the version advances.
  auto warm = client.Call(Json::Parse(ask).value()).value();
  ASSERT_TRUE(warm.GetBool("ok", false)) << warm.Dump();
  auto warm_done = client.WaitJob(
      static_cast<uint64_t>(warm.GetNumber("job", 0))).value();
  ASSERT_EQ(warm_done.GetString("status", ""), "ok") << warm_done.Dump();
  EXPECT_TRUE(warm_done.GetBool("incremental", false)) << warm_done.Dump();
  EXPECT_EQ(warm_done.GetString("fallback_reason", ""), "");
  EXPECT_EQ(warm_done.GetNumber("version", -1), version)
      << warm_done.Dump();

  // A deletion makes the next warm ask fall back — visibly.
  Json removal = Json::MakeArray();
  Json remove = Json::MakeObject();
  remove.Set("op", "remove");
  remove.Set("u", 0);
  remove.Set("v", 60);
  removal.PushBack(std::move(remove));
  ASSERT_GT(client.Mutate("default", std::move(removal))
                .value()
                .GetNumber("applied", 0),
            0);
  auto fell = client.Call(Json::Parse(ask).value()).value();
  ASSERT_TRUE(fell.GetBool("ok", false)) << fell.Dump();
  auto fell_done = client.WaitJob(
      static_cast<uint64_t>(fell.GetNumber("job", 0))).value();
  ASSERT_EQ(fell_done.GetString("status", ""), "ok") << fell_done.Dump();
  EXPECT_FALSE(fell_done.GetBool("incremental", true)) << fell_done.Dump();
  EXPECT_NE(fell_done.GetString("fallback_reason", "").find("deletion"),
            std::string::npos)
      << fell_done.Dump();
}

TEST(ServerTest, IncrementalSubmitWarmStartsOnlyFromEqualParams) {
  // The warm-start store is keyed by algorithm and params: a BFS rooted at
  // one source must never seed an incremental BFS rooted at another.
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  auto run = [&](const std::string& request) {
    auto submitted = client.Call(Json::Parse(request).value()).value();
    EXPECT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
    auto done = client.WaitJob(
        static_cast<uint64_t>(submitted.GetNumber("job", 0))).value();
    EXPECT_EQ(done.GetString("status", ""), "ok") << done.Dump();
    return done;
  };
  const std::string bfs_a =
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":3})";
  const std::string bfs_b =
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":5})";
  const std::string incremental = R"(,"incremental":true})";

  run(bfs_a + "}");  // seeds the store with A-rooted levels
  Json updates = Json::MakeArray();
  for (uint32_t v = 60; v < 68; ++v) {
    Json update = Json::MakeObject();
    update.Set("op", "add");
    update.Set("u", 0);
    update.Set("v", static_cast<double>(v));
    updates.PushBack(std::move(update));
  }
  ASSERT_GT(client.Mutate("default", std::move(updates))
                .value()
                .GetNumber("applied", 0),
            0);

  // No B-rooted result exists: the incremental ask runs cold and answers
  // exactly what a full BFS from B answers.
  auto warm_b = run(bfs_b + incremental);
  EXPECT_FALSE(warm_b.GetBool("incremental", true)) << warm_b.Dump();
  auto full_b = run(bfs_b + "}");
  EXPECT_EQ(warm_b.GetString("fingerprint", ""),
            full_b.GetString("fingerprint", ""));

  // A's entry survived B's runs and still warm-starts A.
  auto warm_a = run(bfs_a + incremental);
  EXPECT_TRUE(warm_a.GetBool("incremental", false)) << warm_a.Dump();
  auto full_a = run(bfs_a + "}");
  EXPECT_EQ(warm_a.GetString("fingerprint", ""),
            full_a.GetString("fingerprint", ""));
  EXPECT_NE(full_a.GetString("fingerprint", ""),
            full_b.GetString("fingerprint", ""));
}

TEST(ServerTest, WarmStartStoreDropsOldestBeyondItsCap) {
  // The store keeps 16 params keys per graph: a 17th evicts the oldest
  // version, whose next incremental ask then runs cold.
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  auto run = [&](uint32_t source, bool incremental) {
    auto submitted =
        client.Call(Json::Parse(R"({"op":"SUBMIT","algo":"bfs","params":)"
                                R"({"source":)" +
                                std::to_string(source) + "}" +
                                (incremental ? R"(,"incremental":true})"
                                             : "}"))
                        .value())
            .value();
    EXPECT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
    return client
        .WaitJob(static_cast<uint64_t>(submitted.GetNumber("job", 0)))
        .value();
  };
  run(0, false);  // version 0
  Json updates = Json::MakeArray();
  Json update = Json::MakeObject();
  update.Set("op", "add");
  update.Set("u", 1);
  update.Set("v", 60);
  updates.PushBack(std::move(update));
  ASSERT_GT(client.Mutate("default", std::move(updates))
                .value()
                .GetNumber("applied", 0),
            0);
  for (uint32_t source = 1; source <= 16; ++source) run(source, false);

  auto kept = run(16, true);
  EXPECT_TRUE(kept.GetBool("incremental", false)) << kept.Dump();
  auto evicted = run(0, true);
  EXPECT_FALSE(evicted.GetBool("incremental", true)) << evicted.Dump();
}

TEST(ServerTest, IncrementalOnStaticGraphIsFailedPrecondition) {
  // A base with duplicate adjacency fails delta normal-form validation and
  // stays static: SUBMIT works, incremental asks are a structured error.
  graph::CooGraph coo;
  coo.num_vertices = 3;
  coo.AddEdge(0, 1);
  coo.AddEdge(0, 1);
  coo.AddEdge(1, 2);
  auto g = std::make_shared<const CsrGraph>(CsrGraph::FromCoo(coo).value());
  auto live = StartServer(g);
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());

  auto refused = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":0},)"
      R"("incremental":true})").value()).value();
  EXPECT_FALSE(refused.GetBool("ok", true)) << refused.Dump();
  EXPECT_EQ(refused.GetString("code", ""), "failed_precondition")
      << refused.Dump();

  // The session and plain submits on the same graph keep working.
  auto plain = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":0}})").value())
      .value();
  ASSERT_TRUE(plain.GetBool("ok", false)) << plain.Dump();
  EXPECT_EQ(client.WaitJob(static_cast<uint64_t>(
                               plain.GetNumber("job", 0)))
                .value()
                .GetString("status", ""),
            "ok");
}

TEST(ServerTest, SequenceNumbersEchoInOrder) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  // Pipeline three STATS with seq tags; responses must come back in order.
  for (int seq = 10; seq < 13; ++seq) {
    Json request = Json::MakeObject();
    request.Set("op", "STATS");
    request.Set("seq", seq);
    ASSERT_TRUE(client.SendLine(request.Dump()).ok());
  }
  for (int seq = 10; seq < 13; ++seq) {
    auto response = Json::Parse(client.ReadLine().value()).value();
    EXPECT_EQ(response.GetNumber("seq", -1), seq);
  }
}

// --- trace identity + INSPECT (§2.14) --------------------------------------

std::vector<std::string> Keys(const Json& object) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : object.members()) keys.push_back(key);
  return keys;
}

// Golden key sets: the exact wire surface, in insertion order.  A key
// appearing, vanishing, or moving is a protocol change and must be a
// conscious one (update this test *and* DESIGN.md §2.10/§2.14).
TEST(ServerTest, GoldenSubmitPollAndStatsKeySets) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());

  // The client is the outermost layer here, so it mints the trace id; the
  // server must adopt it verbatim rather than minting its own.
  const std::string trace_hex = trace::TraceIdHex(trace::MintTraceId());
  auto request = Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":3},"tag":"t"})")
      .value();
  request.Set("trace_id", trace_hex);
  auto submitted = client.Call(request).value();
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  // Every response gains a trailing "op" echo from the dispatcher.
  EXPECT_EQ(Keys(submitted),
            (std::vector<std::string>{"ok", "job", "trace_id",
                                      "estimated_bytes", "tag", "op"}));
  EXPECT_EQ(submitted.GetString("trace_id", ""), trace_hex);

  auto done = client.WaitJob(
      static_cast<uint64_t>(submitted.GetNumber("job", 0))).value();
  ASSERT_EQ(done.GetString("status", ""), "ok") << done.Dump();
  EXPECT_EQ(Keys(done),
            (std::vector<std::string>{
                "ok", "done", "status", "tag", "device", "queue_ms",
                "exec_ms", "trace_id", "sched_job_id", "algo", "modeled_ms",
                "transfer_ms", "cache_hit", "fingerprint", "profile",
                "job", "op"}));
  EXPECT_EQ(done.GetString("trace_id", ""), trace_hex)
      << "the propagated id must survive SUBMIT -> scheduler -> POLL";
  const Json* profile = done.Find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(Keys(*profile),
            (std::vector<std::string>{
                "num_kernels", "total_ms", "total_cycles",
                "warp_inst_issued", "branches", "divergent_branches",
                "dram_bytes", "divergent_branch_ratio", "gld_efficiency",
                "gst_efficiency", "l1_hit_rate", "l2_hit_rate",
                "achieved_occupancy", "exposed_latency_cycles",
                "top_kernels"}));
  EXPECT_GT(profile->GetNumber("num_kernels", 0), 0);
  ASSERT_NE(profile->Find("top_kernels"), nullptr);
  ASSERT_GT(profile->Find("top_kernels")->size(), 0u);
  EXPECT_EQ(Keys(profile->Find("top_kernels")->items()[0]),
            (std::vector<std::string>{"kernel", "launches", "cycles",
                                      "time_ms"}));

  auto stats = client.Call(Json::Parse(R"({"op":"STATS"})").value()).value();
  ASSERT_TRUE(stats.GetBool("ok", false)) << stats.Dump();
  EXPECT_EQ(Keys(stats),
            (std::vector<std::string>{"ok", "jobs", "server", "tenants",
                                      "op"}));
  EXPECT_EQ(Keys(*stats.Find("jobs")),
            (std::vector<std::string>{
                "submitted", "completed", "failed", "rejected_admission",
                "rejected_backpressure", "shed_deadline", "queued",
                "running", "jobs_per_sec"}));
  EXPECT_EQ(Keys(*stats.Find("server")),
            (std::vector<std::string>{
                "sessions_open", "sessions_opened", "requests",
                "protocol_errors", "submits_accepted",
                "submits_rejected_quota", "mutations_applied"}));
}

// Regression: the wire job id used to be minted *after* Scheduler::Submit,
// so the id a client polled could never be matched to the spans already
// emitted for the job.  Both ids now ride the outcome, and INSPECT by the
// wire id must land on the record carrying the scheduler's id.
TEST(ServerTest, WireAndSchedulerJobIdsCorrelate) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  auto submitted = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":0}})").value())
      .value();
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  const uint64_t wire_id =
      static_cast<uint64_t>(submitted.GetNumber("job", 0));
  const std::string trace_hex = submitted.GetString("trace_id", "");
  ASSERT_NE(trace_hex, "");

  auto done = client.WaitJob(wire_id).value();
  ASSERT_EQ(done.GetString("status", ""), "ok") << done.Dump();
  EXPECT_EQ(done.GetNumber("job", 0), static_cast<double>(wire_id));
  const uint64_t sched_id =
      static_cast<uint64_t>(done.GetNumber("sched_job_id", 0));
  EXPECT_NE(sched_id, 0u);

  auto inspected = client.Inspect(wire_id).value();
  const Json* record = inspected.Find("record");
  ASSERT_NE(record, nullptr) << inspected.Dump();
  EXPECT_EQ(record->GetNumber("job", 0), static_cast<double>(wire_id));
  EXPECT_EQ(record->GetNumber("sched_job_id", 0),
            static_cast<double>(sched_id));
  EXPECT_EQ(record->GetString("trace_id", ""), trace_hex);
}

TEST(ServerTest, InspectReturnsSpanTreeProfileAndList) {
  auto live = StartServer(TestGraph());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("x").ok());
  auto submitted = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"pagerank","params":{"iters":8}})").value())
      .value();
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  auto done = client.WaitJob(
      static_cast<uint64_t>(submitted.GetNumber("job", 0))).value();
  ASSERT_EQ(done.GetString("status", ""), "ok") << done.Dump();
  const std::string trace_hex = done.GetString("trace_id", "");

  // By trace id (INSPECT needs no HELLO, but an existing session is fine):
  // the full tree — the wire-layer admit span at the head, the engine's
  // algo span, kernel spans — every one stamped with the job's identity.
  auto inspected = client.Inspect(0, trace_hex).value();
  const Json* record = inspected.Find("record");
  ASSERT_NE(record, nullptr) << inspected.Dump();
  EXPECT_EQ(record->GetString("status", ""), "ok");
  ASSERT_NE(record->Find("profile"), nullptr);
  EXPECT_GT(record->Find("profile")->GetNumber("num_kernels", 0), 0);
  const Json* spans = record->Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_GT(spans->size(), 0u);
  bool saw_admit = false, saw_algo = false, saw_kernel = false;
  for (const Json& span : spans->items()) {
    const std::string name = span.GetString("name", "");
    saw_admit |= name == "admit";
    saw_algo |= name.rfind("algo:", 0) == 0;
    saw_kernel |= span.GetString("cat", "") == "kernel";
    const Json* args = span.Find("args");
    ASSERT_NE(args, nullptr) << name;
    EXPECT_EQ(args->GetString("trace_id", ""), trace_hex) << name;
  }
  EXPECT_TRUE(saw_admit) << "the wire layer heads the span tree";
  EXPECT_TRUE(saw_algo);
  EXPECT_TRUE(saw_kernel);

  // The no-selector list form carries summaries without span trees.
  auto listed = client.Inspect().value();
  const Json* records = listed.Find("records");
  ASSERT_NE(records, nullptr) << listed.Dump();
  ASSERT_GT(records->size(), 0u);
  bool found = false;
  for (const Json& entry : records->items()) {
    found |= entry.GetString("trace_id", "") == trace_hex;
    EXPECT_EQ(entry.Find("spans"), nullptr) << "list form omits span trees";
  }
  EXPECT_TRUE(found);

  // Unknown ids and malformed hex are structured errors, session survives.
  EXPECT_TRUE(client.Inspect(999999).status().IsNotFound());
  Json bad = Json::MakeObject();
  bad.Set("op", "INSPECT");
  bad.Set("trace_id", "not-hex!");
  auto error = client.Call(bad).value();
  EXPECT_FALSE(error.GetBool("ok", true));
  EXPECT_EQ(error.GetString("code", ""), "invalid_argument");
  EXPECT_TRUE(client.Call(Json::Parse(R"({"op":"STATS"})").value())
                  .value()
                  .GetBool("ok", false));
}

TEST(ServerTest, InspectWithoutFlightRecorderIsUnavailable) {
  serve::Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  options.flight_recorder.enabled = false;
  LiveServer live;
  live.scheduler =
      std::move(serve::Scheduler::Create(std::move(options)).value());
  Server::GraphMap graphs;
  graphs["default"] = TestGraph();
  live.server = std::move(
      Server::Start(live.scheduler.get(), std::move(graphs), {}).value());
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  // Like STATS, INSPECT needs no HELLO handshake.
  Json request = Json::MakeObject();
  request.Set("op", "INSPECT");
  auto response = client.Call(request).value();
  EXPECT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(response.GetString("code", ""), "unavailable");
}

TEST(ServerTest, ShutdownWithLiveSessionsReleasesEverything) {
  auto live = StartServer(TestGraph(),
                          {{.name = "alpha", .max_inflight_bytes = 1ull << 30}},
                          /*floor_ms=*/40);
  auto client = Client::Connect("127.0.0.1", live.server->port()).value();
  ASSERT_TRUE(client.Hello("alpha").ok());
  auto submitted = client.Call(Json::Parse(
      R"({"op":"SUBMIT","algo":"bfs","params":{"source":0}})").value())
      .value();
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  live.server->Shutdown();
  auto usage = live.server->tenants()->GetUsage("alpha");
  EXPECT_EQ(usage.inflight_jobs, 0u);
  EXPECT_EQ(usage.inflight_bytes, 0u);
  live.scheduler->Drain();
}

}  // namespace
}  // namespace adgraph::net

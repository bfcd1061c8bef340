#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/api.h"
#include "core/bfs.h"
#include "core/conn_components.h"
#include "core/pagerank.h"
#include "core/sssp.h"
#include "core/widest_path.h"
#include "engine/algorithms.h"
#include "golden_digest.h"
#include "graph/datasets.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph {
namespace {

using graph::CsrGraph;
using vgpu::A100Config;
using vgpu::Device;

/// Shrink factor for the bundled paper proxies: keeps the full 7-dataset
/// sweep inside unit-test time.  The reference digests were captured at
/// this divisor.
constexpr double kGoldenDivisor = 32.0;

struct Reference {
  const char* kase;
  const char* gpu;
  const char* dataset;
  const char* digest;
};

constexpr Reference kReferenceDigests[] = {
#include "golden_seed_digests.inc"
};

std::string ReferenceDigest(std::string_view kase, std::string_view gpu,
                            std::string_view dataset) {
  for (const Reference& r : kReferenceDigests) {
    if (r.kase == kase && r.gpu == gpu && r.dataset == dataset) {
      return r.digest;
    }
  }
  return "(no reference digest)";
}

struct GoldenGraphs {
  std::string name;
  CsrGraph directed;  ///< the proxy as materialized (unweighted, directed)
  CsrGraph sym;       ///< undirected simple version (direction-optimizing BFS)
  CsrGraph weighted;  ///< directed with deterministic random weights
};

/// One materialization of all seven bundled datasets, shared by every
/// golden case in this binary.
class GoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graphs_ = new std::vector<GoldenGraphs>();
    uint64_t weight_seed = 1000;
    for (const auto& spec : graph::PaperDatasets()) {
      GoldenGraphs g;
      g.name = spec.name;
      g.directed = graph::Materialize(spec, kGoldenDivisor).value();
      graph::CsrBuildOptions sym;
      sym.make_undirected = true;
      sym.remove_duplicates = true;
      sym.remove_self_loops = true;
      g.sym = CsrGraph::FromCoo(g.directed.ToCoo(), sym).value();
      auto coo = g.directed.ToCoo();
      graph::AttachRandomWeights(&coo, 0.1, 1.0, ++weight_seed);
      g.weighted = CsrGraph::FromCoo(coo).value();
      graphs_->push_back(std::move(g));
    }
  }
  static void TearDownTestSuite() {
    delete graphs_;
    graphs_ = nullptr;
  }

  /// Runs `run` on a fresh device for every {A100, Z100L} x proxy and
  /// compares its digest with the reference for `kase`.
  template <typename RunFn>
  static void ExpectReferenceDigests(std::string_view kase, RunFn run) {
    for (const vgpu::ArchConfig* gpu :
         {&A100Config(), &vgpu::Z100LConfig()}) {
      for (const GoldenGraphs& gg : *graphs_) {
        Device dev(*gpu);
        auto result = run(&dev, gg);
        EXPECT_EQ(golden::Digest(result, dev.kernel_log()),
                  ReferenceDigest(kase, gpu->name, gg.name))
            << kase << " on " << gpu->name << " / " << gg.name;
      }
    }
  }

  static std::vector<GoldenGraphs>* graphs_;
};

std::vector<GoldenGraphs>* GoldenTest::graphs_ = nullptr;

// BFS and PageRank: the engine drivers against the committed digests of
// the reference drivers they replaced (golden_seed_digests.inc) — outputs,
// counters, the exact bits of l1_delta and time_ms, and the launch
// sequence with every integer counter of every launch.  No tolerance.

TEST_F(GoldenTest, BfsDirectedWithParentsMatchesSeedExactly) {
  ExpectReferenceDigests("bfs_directed_parents",
                         [](Device* dev, const GoldenGraphs& gg) {
                           core::BfsOptions options;
                           options.source = 0;
                           options.compute_parents = true;
                           return engine::RunBfs(dev, gg.directed, options)
                               .value();
                         });
}

TEST_F(GoldenTest, DirectionOptimizingBfsMatchesSeedRoundForRound) {
  // The digest carries the iteration counters and the launch sequence, so
  // the push/pull flips must land on the reference's rounds.
  ExpectReferenceDigests(
      "bfs_symmetric_do", [](Device* dev, const GoldenGraphs& gg) {
        core::BfsOptions options;
        options.source = 0;
        options.assume_symmetric = true;
        auto r = engine::RunBfs(dev, gg.sym, options).value();
        EXPECT_GT(r.bottom_up_iterations, 0u)
            << gg.name << ": proxy too sparse to exercise the pull switch";
        return r;
      });
}

// SSSP, CC and widest-path keep their core/ drivers: the engine ports
// converge to the same unique fixpoints, compared array for array.

TEST_F(GoldenTest, SsspDistancesMatchSeedBitwise) {
  // Min-plus fixpoint is unique, so the engine's frontier-driven schedule
  // lands on the seed's exact distance array (round counts may differ).
  for (const auto& gg : *graphs_) {
    Device dev(A100Config());
    core::SsspOptions options;
    options.source = 0;
    auto seed = core::RunSssp(&dev, gg.weighted, options).value();
    auto eng = engine::RunSssp(&dev, gg.weighted, options).value();
    EXPECT_EQ(eng.distances, seed.distances) << gg.name;
  }
}

TEST_F(GoldenTest, PageRankRanksMatchSeedBitwise) {
  ExpectReferenceDigests("pagerank", [](Device* dev, const GoldenGraphs& gg) {
    core::PageRankOptions options;
    options.max_iterations = 5;
    return engine::RunPageRank(dev, gg.directed, options).value();
  });
}

TEST_F(GoldenTest, PageRankWarmStartFromUniformRanksMatchesColdStart) {
  // The warm-start path (incremental recompute) runs the same loop: started
  // from the 1/n vector a cold run fills, it lands on the same bits.  Its
  // clock starts after the upload, so only the modeled time may differ.
  for (const auto& gg : *graphs_) {
    core::PageRankOptions options;
    options.max_iterations = 5;
    Device cold_dev(A100Config());
    auto cold = engine::RunPageRank(&cold_dev, gg.directed, options).value();
    const graph::vid_t n = gg.directed.num_vertices();
    const std::vector<double> uniform(n, 1.0 / n);
    Device warm_dev(A100Config());
    auto warm = engine::RunPageRank(&warm_dev, gg.directed, options, nullptr,
                                    {}, nullptr, uniform)
                    .value();
    EXPECT_EQ(warm.ranks, cold.ranks) << gg.name;
    EXPECT_EQ(warm.iterations, cold.iterations) << gg.name;
    EXPECT_EQ(warm.l1_delta, cold.l1_delta) << gg.name;
    EXPECT_LT(warm.time_ms, cold.time_ms) << gg.name;
  }
}

TEST_F(GoldenTest, ConnectedComponentsLabelsMatchSeedExactly) {
  for (const auto& gg : *graphs_) {
    Device dev(A100Config());
    auto seed = core::RunConnectedComponents(&dev, gg.directed, {}).value();
    auto eng = engine::RunConnectedComponents(&dev, gg.directed, {}).value();
    EXPECT_EQ(eng.labels, seed.labels) << gg.name;
    EXPECT_EQ(eng.num_components, seed.num_components) << gg.name;
  }
}

TEST_F(GoldenTest, WidestPathWidthsMatchSeedBitwise) {
  // Max-min fixpoint: every width is some edge weight (or 0 / +inf), so
  // exact equality is the right comparison.
  for (const auto& gg : *graphs_) {
    Device dev(A100Config());
    core::WidestPathOptions options;
    options.source = 0;
    auto seed = core::RunWidestPath(&dev, gg.weighted, options).value();
    auto eng = engine::RunWidestPath(&dev, gg.weighted, options).value();
    EXPECT_EQ(eng.widths, seed.widths) << gg.name;
  }
}

TEST_F(GoldenTest, CoreRunDispatchesThroughTheEngine) {
  // The uniform entry point (what serve/capi/CLI/benches call) lands on the
  // same digest.
  const auto& gg = (*graphs_)[0];  // web-Stanford
  Device dev(A100Config());
  core::BfsOptions options;
  options.source = 0;
  options.compute_parents = true;
  auto run = core::Run(&dev, {core::Algo::kBfs}, gg.directed,
                       core::Params(options))
                 .value();
  EXPECT_EQ(golden::Digest(std::get<core::BfsResult>(run), dev.kernel_log()),
            ReferenceDigest("bfs_directed_parents", dev.name(), gg.name));
}

}  // namespace
}  // namespace adgraph

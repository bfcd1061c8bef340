#ifndef ADGRAPH_ENGINE_ALGORITHMS_H_
#define ADGRAPH_ENGINE_ALGORITHMS_H_

#include <span>

#include "core/api.h"
#include "engine/engine.h"
#include "graph/csr.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::engine {

/// \brief The engine algorithms (DESIGN.md §2.11).
///
/// Each is a short driver over the shared Frontier/Advance/Filter
/// operators; `core::Run` dispatches here.  BFS and PageRank exist only
/// here: golden_test pins their outputs, counters, modeled time bits and
/// launch sequences to committed digests of the reference drivers.
///
///  * SSSP / CC / widest-path converge to the unique semiring fixpoint
///    (min-plus, min-label, max-min), so the result arrays are bitwise
///    equal to the core/ drivers even though the engine schedules work
///    frontier-first; round counts and modeled time differ.
///  * PageRank is floating-point-order sensitive, so it keeps one fixed
///    kernel sequence (dangling sum, pull SpMV, damping) as a dense pull
///    advance.
///
/// `report`, when non-null, receives the per-run direction statistics.

Result<core::BfsResult> RunBfs(vgpu::Device* device, const graph::CsrGraph& g,
                               const core::BfsOptions& options,
                               core::GraphResidency* residency = nullptr,
                               const EngineOptions& engine = {},
                               EngineReport* report = nullptr);

Result<core::SsspResult> RunSssp(vgpu::Device* device,
                                 const graph::CsrGraph& g,
                                 const core::SsspOptions& options,
                                 core::GraphResidency* residency = nullptr,
                                 const EngineOptions& engine = {},
                                 EngineReport* report = nullptr);

/// `initial_ranks`, when non-empty, warm-starts the iteration from that
/// vector (one entry per vertex, uploaded off the clock) instead of 1/n.
Result<core::PageRankResult> RunPageRank(
    vgpu::Device* device, const graph::CsrGraph& g,
    const core::PageRankOptions& options,
    core::GraphResidency* residency = nullptr, const EngineOptions& engine = {},
    EngineReport* report = nullptr,
    std::span<const double> initial_ranks = {});

Result<core::CcResult> RunConnectedComponents(
    vgpu::Device* device, const graph::CsrGraph& g,
    const core::CcOptions& options, core::GraphResidency* residency = nullptr,
    const EngineOptions& engine = {}, EngineReport* report = nullptr);

Result<core::WidestPathResult> RunWidestPath(
    vgpu::Device* device, const graph::CsrGraph& g,
    const core::WidestPathOptions& options,
    core::GraphResidency* residency = nullptr, const EngineOptions& engine = {},
    EngineReport* report = nullptr);

/// Brandes single-source betweenness: an engine BFS forward pass that also
/// accumulates shortest-path counts, then a level-synchronous backward
/// dependency sweep — the "new algorithm in a few dozen lines" the engine
/// refactor exists to enable.
Result<core::BcResult> RunBetweenness(vgpu::Device* device,
                                      const graph::CsrGraph& g,
                                      const core::BcOptions& options,
                                      core::GraphResidency* residency = nullptr,
                                      const EngineOptions& engine = {},
                                      EngineReport* report = nullptr);

}  // namespace adgraph::engine

#endif  // ADGRAPH_ENGINE_ALGORITHMS_H_

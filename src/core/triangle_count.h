#ifndef ADGRAPH_CORE_TRIANGLE_COUNT_H_
#define ADGRAPH_CORE_TRIANGLE_COUNT_H_

#include <cstdint>

#include "core/device_graph.h"
#include "graph/csr.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::core {

/// Options of the GPU triangle counter.
struct TcOptions {
  uint32_t block_size = 128;
  /// Blocks resident in the grid (grid-stride loop over vertices).
  uint32_t max_grid = 8192;
  /// Entries of the per-block shared-memory adjacency hash set.  Vertices
  /// with larger oriented degree fall back to binary-search intersection
  /// (the branch-heavy slow path).
  uint32_t hash_capacity = 4096;
  /// Force the binary-search paradigm for every vertex (the "other
  /// mainstream paradigm" the paper mentions; exposed for the ablation
  /// bench).
  bool force_binary_search = false;
  /// Counting mode.  true (default): degree-orient into a DAG on the host
  /// first — bounded intersection work, the common modern optimization.
  /// false: Bisson-Fatica style on the full symmetrized adjacency with
  /// in-kernel ordering filters (u < v < w) — what nvGRAPH's TC actually
  /// does, where hub vertices overflow the shared-memory set and take the
  /// branch-heavy binary-search fallback.  The paper-reproduction bench
  /// uses false; the orient=true variant is this library's extension and
  /// the subject of an ablation.
  bool orient = true;
  /// Sampled simulation: process only every N-th vertex and extrapolate
  /// counters, timing, and the triangle count by N.  1 = exact.  Used by
  /// the paper-reproduction bench for the billion-wedge twitter-mpi proxy,
  /// where exact functional simulation is not affordable (documented in
  /// EXPERIMENTS.md).
  uint32_t vertex_sample = 1;

  bool operator==(const TcOptions&) const = default;
};

/// Outcome of a triangle count.
struct TcResult {
  uint64_t triangles = 0;
  /// Oriented (DAG) edges the kernel actually intersected.
  uint64_t oriented_edges = 0;
  double time_ms = 0;  ///< device kernel time (preprocessing excluded)
  /// True when vertex_sample > 1: `triangles` is an extrapolation.
  bool sampled = false;
};

/// Counts triangles of `g` interpreted as an undirected graph.
///
/// Host preprocessing (symmetrize + deduplicate + degree-orient into a DAG,
/// the standard Bisson-Fatica setup nvGRAPH's TC uses) is not timed; the
/// device phase stages each vertex's adjacency in a shared-memory hash set
/// and probes it for every two-hop edge, with set-intersection-by-binary-
/// search as the high-degree fallback (paper §4.4: "bitmaps and atomic
/// operations ... more conditional judgments and branching than BFS").
class GraphResidency;

Result<TcResult> RunTriangleCount(vgpu::Device* device,
                                  const graph::CsrGraph& g,
                                  const TcOptions& options,
                                  GraphResidency* residency = nullptr);

/// Same, on a prepared device-resident input: a degree-oriented DAG when
/// options.orient, otherwise the symmetrized simple graph.  Adjacency
/// lists must be sorted in both cases.
Result<TcResult> RunTriangleCountOnDevice(vgpu::Device* device,
                                          const DeviceCsr& prepared,
                                          const TcOptions& options);

/// Builds the degree-oriented DAG of `g` (undirected interpretation):
/// u -> v iff (deg(u), u) < (deg(v), v).  Exposed for tests and benches.
Result<graph::CsrGraph> OrientByDegree(const graph::CsrGraph& g);

/// Builds the symmetrized simple graph (sorted, deduplicated, loop-free)
/// — the orient=false input.  Exposed for benches.
Result<graph::CsrGraph> SymmetrizeForTc(const graph::CsrGraph& g);

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_TRIANGLE_COUNT_H_

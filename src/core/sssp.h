#ifndef ADGRAPH_CORE_SSSP_H_
#define ADGRAPH_CORE_SSSP_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::core {

struct SsspOptions {
  graph::vid_t source = 0;
  uint32_t block_size = 256;
  /// Safety bound on relaxation rounds (0 = num_vertices - 1).
  uint32_t max_rounds = 0;
  /// Active-set optimization: each round relaxes only vertices whose
  /// distance changed last round instead of the whole vertex set (the
  /// standard frontier-based Bellman-Ford refinement).  Results are
  /// identical; work usually is not.
  bool use_frontier = true;

  bool operator==(const SsspOptions&) const = default;
};

struct SsspResult {
  /// Per-vertex distance (+infinity when unreachable).
  std::vector<double> distances;
  uint32_t rounds = 0;
  double time_ms = 0;
};

/// Bellman-Ford single-source shortest paths: each round is a min-plus
/// relaxation sweep (the tropical-semiring iteration nvGRAPH's SSSP is
/// built on), with an on-device change flag for early termination.
/// Unweighted edges count as 1.  Negative weights are rejected.
class GraphResidency;

Result<SsspResult> RunSssp(vgpu::Device* device, const graph::CsrGraph& g,
                           const SsspOptions& options,
                           GraphResidency* residency = nullptr);

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_SSSP_H_

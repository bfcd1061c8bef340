#ifndef ADGRAPH_CORE_WIDEST_PATH_H_
#define ADGRAPH_CORE_WIDEST_PATH_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::core {

struct WidestPathOptions {
  graph::vid_t source = 0;
  uint32_t block_size = 256;
  /// Safety bound on relaxation rounds (0 = num_vertices - 1).
  uint32_t max_rounds = 0;

  bool operator==(const WidestPathOptions&) const = default;
};

struct WidestPathResult {
  /// Per-vertex bottleneck capacity from the source: the maximum over all
  /// paths of the minimum edge weight along the path.  +infinity at the
  /// source, 0 for unreachable vertices.
  std::vector<double> widths;
  uint32_t rounds = 0;
  double time_ms = 0;
};

/// Single-source widest (bottleneck / max-min) path — one of nvGRAPH's
/// semiring-SpMV algorithms: iterated (max, min) relaxations with an
/// on-device change flag.  Requires non-negative weights (unweighted
/// edges count as capacity 1).
class GraphResidency;

Result<WidestPathResult> RunWidestPath(vgpu::Device* device,
                                       const graph::CsrGraph& g,
                                       const WidestPathOptions& options,
                                       GraphResidency* residency = nullptr);

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_WIDEST_PATH_H_

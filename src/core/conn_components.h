#ifndef ADGRAPH_CORE_CONN_COMPONENTS_H_
#define ADGRAPH_CORE_CONN_COMPONENTS_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::core {

struct CcOptions {
  uint32_t block_size = 256;

  bool operator==(const CcOptions&) const = default;
};

struct CcResult {
  /// Per-vertex component label = smallest vertex id in the component.
  std::vector<graph::vid_t> labels;
  uint64_t num_components = 0;
  uint32_t iterations = 0;
  double time_ms = 0;
};

/// Weakly connected components via min-label propagation on the
/// symmetrized graph (iterated AtomicMin sweeps until fixpoint).
class GraphResidency;

Result<CcResult> RunConnectedComponents(vgpu::Device* device,
                                        const graph::CsrGraph& g,
                                        const CcOptions& options,
                                        GraphResidency* residency = nullptr);

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_CONN_COMPONENTS_H_

#ifndef PERFBENCH_GRID_H_
#define PERFBENCH_GRID_H_

#include <cstdint>

#include "common.h"

namespace perfbench {

/// Sizes of the paper-grid workload.  The defaults are the quick pass of
/// bench_table5_perf (--extra-divisor=8 --skip-twitter); tests shrink them.
struct PaperGridConfig {
  double extra_divisor = 8;
  int setups = 7;
};

/// BFS, exact TC and ESBV on the Table 4 proxies but twitter-mpi, on A100
/// and Z100L, each cell through core::Run on a fresh device, from one
/// thread.
WorkloadResult RunPaperGrid(const RunOptions& options,
                            const PaperGridConfig& config = {});

/// Sizes of the engine-placements workload; tests shrink them.
struct PlacementsConfig {
  double extra_divisor = 32;
  /// Vertices of the Watts-Strogatz ring lattice.
  uint32_t lattice_vertices = 8192;
  int setups = 15;
};

/// BFS and PageRank on the cit-Patents and soc-liveJournal1 proxies,
/// resident, as 2- and 4-device PCIe gangs and streamed in >= 4 shards,
/// plus SSSP and CC on a low-rewiring lattice, on A100.
WorkloadResult RunEnginePlacements(const RunOptions& options,
                                   const PlacementsConfig& config = {});

}  // namespace perfbench

#endif  // PERFBENCH_GRID_H_

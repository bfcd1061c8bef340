#ifndef PERFBENCH_SERVE_LOAD_H_
#define PERFBENCH_SERVE_LOAD_H_

#include "common.h"

namespace perfbench {

/// Two closed-loop TCP clients against an in-process server (2 A100
/// workers, 1 handler shard, no occupancy floor) asking BFS, SSSP, BC, CC
/// and PageRank on six 1024-vertex graphs with Zipf popularity; each
/// served payload is checked against a direct core::Run.
WorkloadResult RunServeRead(const RunOptions& options);

/// Two closed-loop readers of incremental PageRank, BFS and CC on one
/// mutable graph beside an open-loop MUTATE writer; each read is checked
/// against a full recompute on the snapshot at its version.
WorkloadResult RunServeMutate(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_LOAD_H_

#ifndef ADGRAPH_TESTS_GOLDEN_DIGEST_H_
#define ADGRAPH_TESTS_GOLDEN_DIGEST_H_

// One-line digests of BFS and PageRank runs, the form golden_test compares
// against the committed reference (golden_seed_digests.inc).  A digest
// folds every output array, every counter, the exact bits of the modeled
// time and the launched-kernel sequence into a printable line of
// `key=value` fields, so a mismatch names the field that moved.

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/bfs.h"
#include "core/pagerank.h"
#include "vgpu/counters.h"

namespace adgraph::golden {

/// FNV-1a over raw bytes.  Arrays hash their length first, so a prefix
/// never digests like the whole.
class Fnv64 {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
  }
  template <typename T>
  void Value(const T& value) {
    Bytes(&value, sizeof(value));
  }
  template <typename T>
  void Array(const std::vector<T>& values) {
    Value(static_cast<uint64_t>(values.size()));
    Bytes(values.data(), values.size() * sizeof(T));
  }
  void String(const std::string& s) {
    Value(static_cast<uint64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

inline std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

/// The exact bit pattern of a double (no tolerance, -0.0 != 0.0).
inline std::string Bits(double value) {
  return Hex(std::bit_cast<uint64_t>(value));
}

template <typename T>
std::string ArrayHash(const std::vector<T>& values) {
  Fnv64 h;
  h.Array(values);
  return Hex(h.value());
}

/// The launch sequence in order: each kernel's name, grid, block and every
/// integer event counter (instruction mix, branches, transactions, L1/L2
/// hits and misses, DRAM and shared-memory bytes, launch shape).
inline std::string LaunchDigest(const std::vector<vgpu::KernelStats>& log) {
  Fnv64 h;
  for (const vgpu::KernelStats& k : log) {
    const vgpu::KernelCounters& c = k.counters;
    h.String(k.kernel_name);
    for (uint64_t v :
         {uint64_t{k.grid}, uint64_t{k.block}, k.max_sm_inst,
          c.warp_inst_issued, c.valu_warp_inst, c.lane_ops, c.scalar_inst,
          c.shared_load_inst, c.shared_store_inst, c.global_load_inst,
          c.global_store_inst, c.atomic_inst, c.branches,
          c.divergent_branches, c.barriers, c.global_ld_transactions,
          c.global_st_transactions, c.global_ld_bytes_requested,
          c.global_ld_bytes_transferred, c.global_st_bytes_requested,
          c.global_st_bytes_transferred, c.l1_hits, c.l1_misses, c.l2_hits,
          c.l2_misses, c.dram_read_bytes, c.dram_write_bytes,
          c.smem_accesses, c.smem_bank_conflict_extra, c.smem_bytes,
          c.peer_bytes_sent, c.peer_bytes_received, c.peer_exchanges,
          c.loop_lane_iters_possible, c.loop_lane_iters_useful,
          c.blocks_launched, c.warps_launched}) {
      h.Value(v);
    }
  }
  return "launches=" + std::to_string(log.size()) + " kernels=" +
         Hex(h.value());
}

inline std::string Digest(const core::BfsResult& r,
                          const std::vector<vgpu::KernelStats>& log) {
  return "levels=" + ArrayHash(r.levels) + " parents=" +
         ArrayHash(r.parents) + " depth=" + std::to_string(r.depth) +
         " visited=" + std::to_string(r.vertices_visited) +
         " top_down=" + std::to_string(r.top_down_iterations) +
         " bottom_up=" + std::to_string(r.bottom_up_iterations) +
         " time_ms=" + Bits(r.time_ms) + " " + LaunchDigest(log);
}

inline std::string Digest(const core::PageRankResult& r,
                          const std::vector<vgpu::KernelStats>& log) {
  return "ranks=" + ArrayHash(r.ranks) +
         " iterations=" + std::to_string(r.iterations) +
         " l1_delta=" + Bits(r.l1_delta) + " time_ms=" + Bits(r.time_ms) +
         " " + LaunchDigest(log);
}

}  // namespace adgraph::golden

#endif  // ADGRAPH_TESTS_GOLDEN_DIGEST_H_

#include "vgpu/mem/coalescer.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace adgraph::vgpu {

CoalesceResult Coalesce(const Lanes<uint64_t>& addrs, LaneMask active,
                        uint32_t access_bytes, uint32_t segment_bytes) {
  ADGRAPH_CHECK(std::has_single_bit(segment_bytes))
      << "segment size " << segment_bytes << " is not a power of two";
  ADGRAPH_CHECK(access_bytes > 0 && access_bytes <= segment_bytes)
      << "access of " << access_bytes << " bytes does not fit segment size "
      << segment_bytes;
  CoalesceResult result;
  if (active == 0) return result;
  const uint32_t shift = static_cast<uint32_t>(std::countr_zero(segment_bytes));
  uint64_t* out = result.segment_addrs.data();
  uint32_t n = 0;
  bool presorted = true;
  auto append = [&](uint64_t seg_addr) {
    // Neighbouring lanes mostly share a segment: drop the repeat here so
    // the sort below sees one entry per run.
    if (n > 0 && seg_addr <= out[n - 1]) {
      if (seg_addr == out[n - 1]) return;
      presorted = false;
    }
    out[n++] = seg_addr;
  };
  for (LaneMask m = active; m != 0; m &= m - 1) {
    const uint64_t addr = addrs[static_cast<uint32_t>(std::countr_zero(m))];
    // An access no wider than a segment touches one segment, or two when
    // it straddles a boundary.
    const uint64_t first = addr >> shift;
    const uint64_t last = (addr + access_bytes - 1) >> shift;
    append(first << shift);
    if (last != first) append(last << shift);
  }
  // Sequential access patterns arrive sorted; skip the sort for them.
  if (!presorted) {
    std::sort(out, out + n);
    n = static_cast<uint32_t>(std::unique(out, out + n) - out);
  }
  result.num_segments = n;
  result.bytes_requested = uint64_t{PopCount(active)} * access_bytes;
  result.bytes_transferred = uint64_t{n} << shift;
  return result;
}

}  // namespace adgraph::vgpu

#include "vgpu/mem/cache.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace adgraph::vgpu {

namespace {
uint32_t CheckedLineBytes(uint32_t line_bytes) {
  ADGRAPH_CHECK(std::has_single_bit(line_bytes))
      << "cache line size " << line_bytes << " is not a power of two";
  return line_bytes;
}
}  // namespace

CacheModel::CacheModel(uint64_t size_bytes, uint32_t line_bytes,
                       uint32_t associativity)
    : line_bytes_(CheckedLineBytes(line_bytes)),
      line_shift_(static_cast<uint32_t>(std::countr_zero(line_bytes))),
      assoc_(std::max<uint32_t>(associativity, 1)),
      num_sets_(size_bytes / (static_cast<uint64_t>(line_bytes_) * assoc_)),
      set_mask_(std::has_single_bit(num_sets_) ? num_sets_ - 1 : kNoSetMask) {
  ways_.resize(num_sets_ * assoc_);
}

void CacheModel::Clear() { std::fill(ways_.begin(), ways_.end(), Way{}); }

}  // namespace adgraph::vgpu

#ifndef ADGRAPH_VGPU_MEM_CACHE_H_
#define ADGRAPH_VGPU_MEM_CACHE_H_

#include <cstdint>
#include <vector>

namespace adgraph::vgpu {

/// \brief Set-associative LRU cache model (tags only — data lives in the
/// AddressSpace; the cache decides hit/miss and eviction).
///
/// Used for the per-SM L1 and the device-wide L2.  Deterministic: hit/miss
/// outcomes depend only on the access sequence, which the simulator replays
/// in a fixed order.
class CacheModel {
 public:
  /// `size_bytes` is rounded down to a whole number of sets; a zero-sized
  /// cache never hits.  `line_bytes` must be a power of two (checked).
  CacheModel(uint64_t size_bytes, uint32_t line_bytes, uint32_t associativity);

  /// Touches the line containing `addr`; returns true on hit.  On miss the
  /// line is filled (evicting LRU).  Writes are write-allocate.
  bool Access(uint64_t addr) {
    if (num_sets_ == 0) {
      ++misses_;
      return false;
    }
    // Within one set equal line numbers and equal tags are the same test,
    // so a way stores its whole line number and no tag is derived.
    const uint64_t line = addr >> line_shift_;
    Way* const set = &ways_[SetOf(line) * assoc_];
    ++stamp_;
    // Hit scan first (the common case); only a miss pays the victim scan.
    for (uint32_t w = 0; w < assoc_; ++w) {
      if (set[w].line == line) {
        set[w].lru = stamp_;
        ++hits_;
        return true;
      }
    }
    // Empty ways hold stamp 0 and filled ways distinct later stamps, so the
    // first minimum is the first empty way, else the least recently used.
    Way* victim = set;
    for (uint32_t w = 1; w < assoc_; ++w) {
      if (set[w].lru < victim->lru) victim = &set[w];
    }
    victim->line = line;
    victim->lru = stamp_;
    ++misses_;
    return false;
  }

  /// Invalidates all lines (between kernels if desired; graph kernels keep
  /// caches warm across launches of the same algorithm, as hardware does).
  void Clear();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint32_t line_bytes() const { return line_bytes_; }

 private:
  /// Marks an empty way.  No simulated address maps to it: the address
  /// space never hands out the top of the 64-bit range.
  static constexpr uint64_t kEmptyLine = ~0ull;
  /// set_mask_ value when the set count is not a power of two.
  static constexpr uint64_t kNoSetMask = ~0ull;

  struct Way {
    uint64_t line = kEmptyLine;
    uint64_t lru = 0;  // last-access stamp; 0 = never filled
  };

  uint64_t SetOf(uint64_t line) const {
    // Every L1 has a power-of-two set count; the A100 L2 (20480 sets) and
    // memory_scale-shrunk L2s do not.
    return set_mask_ != kNoSetMask ? line & set_mask_ : line % num_sets_;
  }

  uint32_t line_bytes_;
  uint32_t line_shift_;
  uint32_t assoc_;
  uint64_t num_sets_;
  uint64_t set_mask_;  // num_sets_ - 1, or kNoSetMask
  uint64_t stamp_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::vector<Way> ways_;  // num_sets_ x assoc_
};

}  // namespace adgraph::vgpu

#endif  // ADGRAPH_VGPU_MEM_CACHE_H_

#ifndef ADGRAPH_VGPU_LANES_H_
#define ADGRAPH_VGPU_LANES_H_

#include <array>
#include <bit>
#include <cstdint>

namespace adgraph::vgpu {

/// Maximum simulated warp/wavefront width (AMD-like wavefront = 64).
inline constexpr uint32_t kMaxWarpWidth = 64;

/// Bitset of active lanes within one warp/wavefront; bit i = lane i.
using LaneMask = uint64_t;

/// Mask with the low `width` bits set (width <= 64).
inline LaneMask FullMask(uint32_t width) {
  return width >= 64 ? ~0ull : ((1ull << width) - 1);
}

inline uint32_t PopCount(LaneMask m) {
  return static_cast<uint32_t>(std::popcount(m));
}

inline bool LaneActive(LaneMask m, uint32_t lane) {
  return (m >> lane) & 1ull;
}

/// \brief Per-lane register file entry: one value per lane of a warp.
///
/// Lanes is a plain value container; all arithmetic on it is performed via
/// the Ctx execution DSL so that every operation is counted and timed by
/// the simulator.  Inactive lanes hold stale values that must never be
/// observed (the DSL only reads lanes covered by the active mask).  A
/// default-constructed Lanes is therefore left uninitialized: every DSL
/// result would otherwise zero all 64 lanes only to overwrite the live
/// ones.
template <typename T>
struct Lanes {
  std::array<T, kMaxWarpWidth> v;

  T& operator[](uint32_t lane) { return v[lane]; }
  const T& operator[](uint32_t lane) const { return v[lane]; }

  /// All-lanes-same-value constructor helper.
  static Lanes Splat(T value) {
    Lanes out;
    out.v.fill(value);
    return out;
  }
};

}  // namespace adgraph::vgpu

#endif  // ADGRAPH_VGPU_LANES_H_

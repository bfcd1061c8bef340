#ifndef ADGRAPH_VGPU_CTX_H_
#define ADGRAPH_VGPU_CTX_H_

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <type_traits>

#include "util/logging.h"
#include "vgpu/arch.h"
#include "vgpu/counters.h"
#include "vgpu/lanes.h"
#include "vgpu/mem/address_space.h"
#include "vgpu/mem/cache.h"
#include "vgpu/mem/shared_mem.h"
#include "vgpu/timing.h"

namespace adgraph::vgpu {

/// Iterates `i` over the set bits of the current active mask (hot path:
/// every DSL op touches only live lanes instead of scanning the full warp).
#define ADGRAPH_VGPU_FOR_ACTIVE(i)                                        \
  for (::adgraph::vgpu::LaneMask adg_m_ = active_; adg_m_ != 0;           \
       adg_m_ &= adg_m_ - 1)                                              \
    if (const uint32_t i =                                                \
            static_cast<uint32_t>(std::countr_zero(adg_m_));             \
        true)

/// \brief Per-warp execution context: the device-side programming DSL.
///
/// A kernel coroutine receives a Ctx and expresses its program through it.
/// Every DSL call (a) computes the functional result for all active lanes,
/// (b) increments the hardware event counters, and (c) feeds the analytic
/// timing model — so profiling metrics and runtimes fall out of ordinary
/// execution with no separate trace replay.
///
/// Control-flow rules (mirroring real GPU semantics):
///  * `If`/`IfElse`/`For`/`While` manage the active-lane mask; divergence
///    cost depends on the architecture paradigm (SIMT vs SIMD).
///  * `co_await c.Sync()` is a block barrier and must be reached in uniform
///    control flow (checked at runtime), like `__syncthreads()`.
class Ctx {
 public:
  /// One context per warp slot of a launch; BeginBlock points it at a block
  /// before each run of the kernel.
  Ctx(const ArchConfig* arch, const TimingParams* params, AddressSpace* global,
      CacheModel* l2, SharedMemory* smem, KernelCounters* counters,
      uint32_t grid_dim, uint32_t block_dim, uint32_t warp_in_block)
      : arch_(arch),
        params_(params),
        global_(global),
        l2_(l2),
        smem_(smem),
        counters_(counters),
        grid_dim_(grid_dim),
        block_dim_(block_dim),
        warp_in_block_(warp_in_block) {
    width_ = arch_->warp_width;
    uint32_t first_thread = warp_in_block_ * width_;
    uint32_t live = block_dim_ > first_thread
                        ? std::min(width_, block_dim_ - first_thread)
                        : 0;
    entry_mask_ = FullMask(live);
  }

  /// Re-points the context at `block_id`, running on the SM that owns
  /// `l1`, with the warp's entry mask, no open branches and no barrier.
  void BeginBlock(uint32_t block_id, CacheModel* l1) {
    block_id_ = block_id;
    l1_ = l1;
    active_ = entry_mask_;
    depth_ = 0;
    divergence_depth_ = 0;
    at_barrier_ = false;
  }

  Ctx(const Ctx&) = delete;
  Ctx& operator=(const Ctx&) = delete;

  // ====================== Identity & shape ==============================

  uint32_t width() const { return width_; }
  uint32_t block_id() const { return block_id_; }
  uint32_t block_dim() const { return block_dim_; }
  uint32_t grid_dim() const { return grid_dim_; }
  uint32_t warp_in_block() const { return warp_in_block_; }
  LaneMask ActiveMask() const { return active_; }

  /// Lane index within the warp (0..width-1); free, like reading a sreg.
  Lanes<uint32_t> LaneId() const {
    Lanes<uint32_t> out;
    for (uint32_t i = 0; i < width_; ++i) out[i] = i;
    return out;
  }

  /// blockIdx.x * blockDim.x + threadIdx.x
  Lanes<uint32_t> GlobalThreadId() const {
    Lanes<uint32_t> out;
    uint32_t base = block_id_ * block_dim_ + warp_in_block_ * width_;
    for (uint32_t i = 0; i < width_; ++i) out[i] = base + i;
    return out;
  }

  /// threadIdx.x
  Lanes<uint32_t> BlockThreadId() const {
    Lanes<uint32_t> out;
    uint32_t base = warp_in_block_ * width_;
    for (uint32_t i = 0; i < width_; ++i) out[i] = base + i;
    return out;
  }

  /// Total threads in the grid (host scalar).
  uint64_t GridThreads() const {
    return static_cast<uint64_t>(grid_dim_) * block_dim_;
  }

  // ====================== Constants ====================================

  /// Broadcast of an immediate; free (folded into consuming instructions).
  /// Lanes at or beyond the warp width are never active, so they stay
  /// unwritten.
  template <typename T>
  Lanes<T> Splat(T value) const {
    Lanes<T> out;
    std::fill_n(out.v.begin(), width_, value);
    return out;
  }

  // ====================== Arithmetic (VALU) ==============================

#define ADGRAPH_VGPU_BINOP(Name, expr)                                     \
  template <typename T>                                                    \
  Lanes<T> Name(const Lanes<T>& a, const Lanes<T>& b) {                    \
    CountValu();                                                           \
    Lanes<T> out;                                                          \
    ADGRAPH_VGPU_FOR_ACTIVE(i) {                                           \
      const T x = a[i];                                                    \
      const T y = b[i];                                                    \
      out[i] = (expr);                                                     \
    }                                                                      \
    return out;                                                            \
  }                                                                        \
  template <typename T>                                                    \
  Lanes<T> Name(const Lanes<T>& a, T scalar) {                             \
    return Name(a, Splat(scalar));                                         \
  }

  ADGRAPH_VGPU_BINOP(Add, x + y)
  ADGRAPH_VGPU_BINOP(Sub, x - y)
  ADGRAPH_VGPU_BINOP(Mul, x* y)
  ADGRAPH_VGPU_BINOP(Div, y == T{} ? T{} : x / y)
  ADGRAPH_VGPU_BINOP(Min, std::min(x, y))
  ADGRAPH_VGPU_BINOP(Max, std::max(x, y))
#undef ADGRAPH_VGPU_BINOP

#define ADGRAPH_VGPU_INT_BINOP(Name, expr)                                 \
  template <typename T>                                                    \
  Lanes<T> Name(const Lanes<T>& a, const Lanes<T>& b) {                    \
    static_assert(std::is_integral_v<T>);                                  \
    CountValu();                                                           \
    Lanes<T> out;                                                          \
    ADGRAPH_VGPU_FOR_ACTIVE(i) {                                           \
      const T x = a[i];                                                    \
      const T y = b[i];                                                    \
      out[i] = (expr);                                                     \
    }                                                                      \
    return out;                                                            \
  }                                                                        \
  template <typename T>                                                    \
  Lanes<T> Name(const Lanes<T>& a, T scalar) {                             \
    return Name(a, Splat(scalar));                                         \
  }

  ADGRAPH_VGPU_INT_BINOP(Rem, y == T{} ? T{} : x % y)
  ADGRAPH_VGPU_INT_BINOP(BitAnd, x& y)
  ADGRAPH_VGPU_INT_BINOP(BitOr, x | y)
  ADGRAPH_VGPU_INT_BINOP(BitXor, x ^ y)
  ADGRAPH_VGPU_INT_BINOP(Shl, static_cast<T>(x << y))
  ADGRAPH_VGPU_INT_BINOP(Shr, static_cast<T>(x >> y))
#undef ADGRAPH_VGPU_INT_BINOP

  /// Count of trailing zeros per lane (find-first-set; one VALU op).
  /// 64 for a zero input, like the hardware instruction.
  template <typename T>
  Lanes<uint32_t> Ctz(const Lanes<T>& a) {
    static_assert(std::is_integral_v<T>);
    CountValu();
    Lanes<uint32_t> out;
    ADGRAPH_VGPU_FOR_ACTIVE(i) {
      out[i] = a[i] == T{0}
                   ? static_cast<uint32_t>(sizeof(T) * 8)
                   : static_cast<uint32_t>(std::countr_zero(
                         static_cast<std::make_unsigned_t<T>>(a[i])));
    }
    return out;
  }

  /// Lane-wise bitwise complement (one VALU op).
  template <typename T>
  Lanes<T> BitNot(const Lanes<T>& a) {
    static_assert(std::is_integral_v<T>);
    CountValu();
    Lanes<T> out;
    ADGRAPH_VGPU_FOR_ACTIVE(i) { out[i] = static_cast<T>(~a[i]); }
    return out;
  }

  /// Lane-wise type conversion (counts one VALU instruction).
  template <typename To, typename From>
  Lanes<To> Cast(const Lanes<From>& a) {
    CountValu();
    Lanes<To> out;
    ADGRAPH_VGPU_FOR_ACTIVE(i) { out[i] = static_cast<To>(a[i]); }
    return out;
  }

  // ====================== Comparisons -> predicate masks =================

#define ADGRAPH_VGPU_CMP(Name, op)                                         \
  template <typename T>                                                    \
  LaneMask Name(const Lanes<T>& a, const Lanes<T>& b) {                    \
    CountValu();                                                           \
    LaneMask m = 0;                                                        \
    ADGRAPH_VGPU_FOR_ACTIVE(i) {                                           \
      if (a[i] op b[i]) m |= 1ull << i;                                    \
    }                                                                      \
    return m;                                                              \
  }                                                                        \
  template <typename T>                                                    \
  LaneMask Name(const Lanes<T>& a, T scalar) {                             \
    return Name(a, Splat(scalar));                                         \
  }

  ADGRAPH_VGPU_CMP(Lt, <)
  ADGRAPH_VGPU_CMP(Le, <=)
  ADGRAPH_VGPU_CMP(Gt, >)
  ADGRAPH_VGPU_CMP(Ge, >=)
  ADGRAPH_VGPU_CMP(Eq, ==)
  ADGRAPH_VGPU_CMP(Ne, !=)
#undef ADGRAPH_VGPU_CMP

  /// Complement within the current active set (free mask algebra).
  LaneMask NotMask(LaneMask m) const { return active_ & ~m; }

  /// Writes `src` into `*dst` for *active lanes only* (a register move —
  /// free).  Inside `If`/`For` bodies plain C++ assignment would clobber
  /// the inactive lanes of an outer variable; use Assign instead.
  template <typename T>
  void Assign(Lanes<T>* dst, const Lanes<T>& src) const {
    ADGRAPH_VGPU_FOR_ACTIVE(i) { (*dst)[i] = src[i]; }
  }

  /// Lane-wise select: m ? a : b (predication, no divergence).
  template <typename T>
  Lanes<T> Select(LaneMask m, const Lanes<T>& a, const Lanes<T>& b) {
    CountValu();
    Lanes<T> out;
    ADGRAPH_VGPU_FOR_ACTIVE(i) { out[i] = LaneActive(m, i) ? a[i] : b[i]; }
    return out;
  }

  // ====================== Warp votes & collectives =======================

  /// True if any active lane's bit is set (warp vote, one instruction).
  bool Any(LaneMask m) {
    CountValu();
    return (m & active_) != 0;
  }
  /// True if every active lane's bit is set.
  bool All(LaneMask m) {
    CountValu();
    return (m & active_) == active_;
  }
  /// The predicate mask itself (like __ballot_sync).
  LaneMask Ballot(LaneMask m) {
    CountValu();
    return m & active_;
  }

  /// Butterfly reduction over active lanes; result broadcast host-side.
  template <typename T>
  T ReduceAdd(const Lanes<T>& a) {
    CountReduction();
    T sum{};
    ADGRAPH_VGPU_FOR_ACTIVE(i) { sum += a[i]; }
    return sum;
  }
  template <typename T>
  T ReduceMax(const Lanes<T>& a) {
    CountReduction();
    bool first = true;
    T best{};
    ADGRAPH_VGPU_FOR_ACTIVE(i) {
      best = first ? a[i] : std::max(best, a[i]);
      first = false;
    }
    return best;
  }
  template <typename T>
  T ReduceMin(const Lanes<T>& a) {
    CountReduction();
    bool first = true;
    T best{};
    ADGRAPH_VGPU_FOR_ACTIVE(i) {
      best = first ? a[i] : std::min(best, a[i]);
      first = false;
    }
    return best;
  }

  /// First-active-lane value read back to the host side of the kernel
  /// (readfirstlane-style scalarization; one scalar instruction).  Only
  /// meaningful for warp-uniform values (uniform loads, block ids).
  template <typename T>
  T ScalarOf(const Lanes<T>& a) {
    counters_->scalar_inst += 1;
    ADGRAPH_CHECK(active_ != 0) << "ScalarOf with no active lanes";
    return a[static_cast<uint32_t>(std::countr_zero(active_))];
  }

  /// Rank of each active lane among the active lanes (0-based), e.g. for
  /// warp-aggregated queue reservation.  Counts one instruction (computed
  /// from a ballot + popc on hardware).
  Lanes<uint32_t> RankAmong(LaneMask m) {
    CountValu();
    Lanes<uint32_t> out;
    uint32_t rank = 0;
    for (uint32_t i = 0; i < width_; ++i) {
      if (LaneActive(m & active_, i)) out[i] = rank++;
    }
    return out;
  }

  /// Value held by `src_lane`, broadcast to all active lanes (__shfl).
  template <typename T>
  Lanes<T> BroadcastLane(const Lanes<T>& a, uint32_t src_lane) {
    CountValu();
    return Splat(a[src_lane]);
  }

  // ====================== Global memory ==================================

  /// Gather: per-lane load of base[idx[lane]].
  template <typename T, typename I>
  Lanes<T> Load(DevPtr<T> base, const Lanes<I>& idx) {
    static_assert(std::is_integral_v<I>);
    Lanes<uint64_t> addrs = LaneAddrs(base.addr, idx, sizeof(T));
    AccountGlobal(addrs, sizeof(T), /*is_store=*/false);
    Lanes<T> out;
    ADGRAPH_VGPU_FOR_ACTIVE(i) { out[i] = global_->Load<T>(addrs[i]); }
    return out;
  }

  /// Scatter: per-lane store of val[lane] to base[idx[lane]].
  template <typename T, typename I>
  void Store(DevPtr<T> base, const Lanes<I>& idx, const Lanes<T>& val) {
    static_assert(std::is_integral_v<I>);
    Lanes<uint64_t> addrs = LaneAddrs(base.addr, idx, sizeof(T));
    AccountGlobal(addrs, sizeof(T), /*is_store=*/true);
    ADGRAPH_VGPU_FOR_ACTIVE(i) { global_->Store<T>(addrs[i], val[i]); }
  }

  /// Atomic fetch-add on global memory; returns per-lane old values.
  /// Same-address lanes are serialized in lane order (deterministic).
  template <typename T, typename I>
  Lanes<T> AtomicAdd(DevPtr<T> base, const Lanes<I>& idx,
                     const Lanes<T>& val) {
    return AtomicRmw(base, idx, val,
                     [](T old_value, T operand) { return old_value + operand; });
  }
  template <typename T, typename I>
  Lanes<T> AtomicMin(DevPtr<T> base, const Lanes<I>& idx,
                     const Lanes<T>& val) {
    return AtomicRmw(base, idx, val, [](T old_value, T operand) {
      return std::min(old_value, operand);
    });
  }
  template <typename T, typename I>
  Lanes<T> AtomicMax(DevPtr<T> base, const Lanes<I>& idx,
                     const Lanes<T>& val) {
    return AtomicRmw(base, idx, val, [](T old_value, T operand) {
      return std::max(old_value, operand);
    });
  }
  template <typename T, typename I>
  Lanes<T> AtomicOr(DevPtr<T> base, const Lanes<I>& idx,
                    const Lanes<T>& val) {
    static_assert(std::is_integral_v<T>);
    return AtomicRmw(base, idx, val,
                     [](T old_value, T operand) { return old_value | operand; });
  }
  template <typename T, typename I>
  Lanes<T> AtomicExch(DevPtr<T> base, const Lanes<I>& idx,
                      const Lanes<T>& val) {
    return AtomicRmw(base, idx, val, [](T, T operand) { return operand; });
  }

  /// Atomic compare-and-swap; returns per-lane old values.
  template <typename T, typename I>
  Lanes<T> AtomicCas(DevPtr<T> base, const Lanes<I>& idx,
                     const Lanes<T>& expected, const Lanes<T>& desired) {
    static_assert(std::is_integral_v<I>);
    Lanes<uint64_t> addrs = LaneAddrs(base.addr, idx, sizeof(T));
    AccountAtomic(addrs, sizeof(T));
    Lanes<T> out;
    ADGRAPH_VGPU_FOR_ACTIVE(i) {
      T old_value = global_->Load<T>(addrs[i]);
      out[i] = old_value;
      if (old_value == expected[i]) global_->Store<T>(addrs[i], desired[i]);
    }
    return out;
  }

  // ====================== Shared memory / LDS ============================

  template <typename T, typename I>
  Lanes<T> SharedLoad(SmemPtr<T> base, const Lanes<I>& idx) {
    static_assert(std::is_integral_v<I>);
    ADGRAPH_CHECK(smem_ != nullptr) << "kernel launched without shared memory";
    Lanes<uint64_t> offs = LaneAddrs(base.offset, idx, sizeof(T));
    AccountShared(offs, sizeof(T), /*is_store=*/false);
    Lanes<T> out;
    ADGRAPH_VGPU_FOR_ACTIVE(i) {
      out[i] = smem_->Load<T>(static_cast<uint32_t>(offs[i]));
    }
    return out;
  }

  template <typename T, typename I>
  void SharedStore(SmemPtr<T> base, const Lanes<I>& idx, const Lanes<T>& val) {
    static_assert(std::is_integral_v<I>);
    ADGRAPH_CHECK(smem_ != nullptr) << "kernel launched without shared memory";
    Lanes<uint64_t> offs = LaneAddrs(base.offset, idx, sizeof(T));
    AccountShared(offs, sizeof(T), /*is_store=*/true);
    ADGRAPH_VGPU_FOR_ACTIVE(i) {
      smem_->Store<T>(static_cast<uint32_t>(offs[i]), val[i]);
    }
  }

  /// Atomic fetch-add on shared memory (serialized per word, lane order).
  template <typename T, typename I>
  Lanes<T> SharedAtomicAdd(SmemPtr<T> base, const Lanes<I>& idx,
                           const Lanes<T>& val) {
    static_assert(std::is_integral_v<I>);
    ADGRAPH_CHECK(smem_ != nullptr) << "kernel launched without shared memory";
    Lanes<uint64_t> offs = LaneAddrs(base.offset, idx, sizeof(T));
    AccountShared(offs, sizeof(T), /*is_store=*/true);
    Lanes<T> out;
    ADGRAPH_VGPU_FOR_ACTIVE(i) {
      uint32_t off = static_cast<uint32_t>(offs[i]);
      T old_value = smem_->Load<T>(off);
      out[i] = old_value;
      smem_->Store<T>(off, static_cast<T>(old_value + val[i]));
    }
    return out;
  }

  /// Atomic compare-and-swap on shared memory (hash-table insertion, e.g.
  /// the TC adjacency set); returns per-lane old values.  Same-word lanes
  /// serialize in lane order.
  template <typename T, typename I>
  Lanes<T> SharedAtomicCas(SmemPtr<T> base, const Lanes<I>& idx,
                           const Lanes<T>& expected, const Lanes<T>& desired) {
    static_assert(std::is_integral_v<T> && std::is_integral_v<I>);
    ADGRAPH_CHECK(smem_ != nullptr) << "kernel launched without shared memory";
    Lanes<uint64_t> offs = LaneAddrs(base.offset, idx, sizeof(T));
    AccountShared(offs, sizeof(T), /*is_store=*/true);
    Lanes<T> out;
    ADGRAPH_VGPU_FOR_ACTIVE(i) {
      uint32_t off = static_cast<uint32_t>(offs[i]);
      T old_value = smem_->Load<T>(off);
      out[i] = old_value;
      if (old_value == expected[i]) smem_->Store<T>(off, desired[i]);
    }
    return out;
  }

  /// Atomic bitwise-or on shared memory (bitmap building, e.g. TC).
  template <typename T, typename I>
  Lanes<T> SharedAtomicOr(SmemPtr<T> base, const Lanes<I>& idx,
                          const Lanes<T>& val) {
    static_assert(std::is_integral_v<T> && std::is_integral_v<I>);
    ADGRAPH_CHECK(smem_ != nullptr) << "kernel launched without shared memory";
    Lanes<uint64_t> offs = LaneAddrs(base.offset, idx, sizeof(T));
    AccountShared(offs, sizeof(T), /*is_store=*/true);
    Lanes<T> out;
    ADGRAPH_VGPU_FOR_ACTIVE(i) {
      uint32_t off = static_cast<uint32_t>(offs[i]);
      T old_value = smem_->Load<T>(off);
      out[i] = old_value;
      smem_->Store<T>(off, static_cast<T>(old_value | val[i]));
    }
    return out;
  }

  uint32_t shared_size_bytes() const {
    return smem_ ? smem_->size_bytes() : 0;
  }

  // ============== Fused shared-memory hash-set operations ===============
  //
  // Functionally identical to the open-addressing DSL loops they replace
  // (multiplicative hash, linear probing, lockstep rounds to the slowest
  // lane) and charged with the same instruction mix — fused only to keep
  // the simulator's wall-clock cost off the per-op path.  These are the
  // inner loops of set-intersection triangle counting.

  /// Inserts each active lane's key into the table (u32 slots, `empty`
  /// sentinel).  Same-slot collisions probe linearly; lane order resolves
  /// races deterministically.
  void SharedHashInsert(SmemPtr<uint32_t> table, uint32_t capacity,
                        const Lanes<uint32_t>& keys, uint32_t hash_mult,
                        uint32_t empty);

  /// Probes for each active lane's key; returns the mask of lanes whose
  /// key is present.  The table must have at least one `empty` slot.
  LaneMask SharedHashProbe(SmemPtr<uint32_t> table, uint32_t capacity,
                           const Lanes<uint32_t>& keys, uint32_t hash_mult,
                           uint32_t empty);

  /// Block-cooperative fill: this warp stores `value` to elements
  /// base[warp_in_block*width + lane + k*block_dim] below `count`.  Called
  /// from every warp (uniform control flow) + Sync, the block covers the
  /// whole range — the fused equivalent of the strided clear loop.
  void SharedBlockFill(SmemPtr<uint32_t> base, uint32_t count, uint32_t value);

  // ====================== Structured control flow ========================

  /// Executes `body` with the active mask narrowed to `cond`; skipped
  /// entirely when no lane takes it.  Divergence costs depend on paradigm.
  template <typename F>
  void If(LaneMask cond, F&& body) {
    cond &= active_;
    LaneMask not_taken = active_ & ~cond;
    AccountBranch(cond != 0 && not_taken != 0);
    if (cond == 0) return;
    PushMask(cond, /*divergent=*/not_taken != 0);
    body(*this);
    PopMask();
  }

  /// Two-sided branch; each side runs only if it has lanes.
  template <typename FT, typename FE>
  void IfElse(LaneMask cond, FT&& then_body, FE&& else_body) {
    cond &= active_;
    LaneMask not_taken = active_ & ~cond;
    bool divergent = cond != 0 && not_taken != 0;
    AccountBranch(divergent);
    if (cond != 0) {
      PushMask(cond, divergent);
      then_body(*this);
      PopMask();
    }
    if (not_taken != 0) {
      PushMask(not_taken, divergent);
      else_body(*this);
      PopMask();
    }
  }

  /// Lockstep counted loop with per-lane bounds [begin, end).  The warp
  /// iterates to the *maximum* trip count; lanes past their bound idle
  /// (intra-warp load imbalance — worse at wavefront width 64).
  /// `body(ctx, iter)` gets the per-lane induction value.
  template <typename I, typename F>
  void For(const Lanes<I>& begin, const Lanes<I>& end, F&& body) {
    static_assert(std::is_integral_v<I>);
    uint64_t max_trip = 0;
    uint64_t useful = 0;
    ADGRAPH_VGPU_FOR_ACTIVE(i) {
      uint64_t trips =
          end[i] > begin[i] ? static_cast<uint64_t>(end[i] - begin[i]) : 0;
      max_trip = std::max(max_trip, trips);
      useful += trips;
    }
    counters_->loop_lane_iters_possible += max_trip * PopCount(active_);
    counters_->loop_lane_iters_useful += useful;
    if (max_trip == 0) return;

    Lanes<I> iter = begin;
    for (uint64_t t = 0; t < max_trip; ++t) {
      // Loop bookkeeping: compare + increment execute on the whole warp
      // every iteration, including for lanes that already finished.
      CountValu();
      CountValu();
      LaneMask m = 0;
      ADGRAPH_VGPU_FOR_ACTIVE(i) {
        if (iter[i] < end[i]) m |= 1ull << i;
      }
      bool divergent = m != active_;
      PushMask(m, divergent);
      body(*this, iter);
      PopMask();
      ADGRAPH_VGPU_FOR_ACTIVE(i) { ++iter[i]; }
    }
  }

  /// Data-dependent loop: `pred(ctx)` yields the continue-mask; `body`
  /// runs while any lane continues.  Bounded by a large iteration guard to
  /// surface accidental infinite loops in kernels.
  template <typename P, typename F>
  void While(P&& pred, F&& body) {
    uint64_t guard = 0;
    for (;;) {
      LaneMask m = pred(*this) & active_;
      AccountBranch(m != 0 && m != active_);
      if (m == 0) return;
      PushMask(m, m != active_);
      body(*this);
      PopMask();
      ADGRAPH_CHECK(++guard < (1ull << 34)) << "runaway While loop in kernel";
    }
  }

  // ====================== Block barrier ==================================

  /// Awaitable returned by Sync(); suspends the warp until every warp of
  /// the block reaches the barrier.
  struct BarrierAwaiter {
    Ctx* ctx;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) const noexcept {
      ctx->at_barrier_ = true;
    }
    void await_resume() const noexcept {}
  };

  /// Block-level barrier (`__syncthreads()`); must be awaited in uniform
  /// control flow: `co_await c.Sync();`.
  BarrierAwaiter Sync() {
    ADGRAPH_CHECK(divergence_depth_ == 0)
        << "Sync() inside divergent control flow (kernel bug)";
    counters_->warp_inst_issued += 1;
    return BarrierAwaiter{this};
  }

  // Scheduler interface (Device::Launch).
  bool at_barrier() const { return at_barrier_; }
  void ClearBarrier() { at_barrier_ = false; }

 private:
  template <typename I>
  Lanes<uint64_t> LaneAddrs(uint64_t base, const Lanes<I>& idx,
                            uint64_t elem_size) const {
    Lanes<uint64_t> out;
    ADGRAPH_VGPU_FOR_ACTIVE(i) {
      out[i] = base + static_cast<uint64_t>(idx[i]) * elem_size;
    }
    return out;
  }

  template <typename T, typename I, typename F>
  Lanes<T> AtomicRmw(DevPtr<T> base, const Lanes<I>& idx, const Lanes<T>& val,
                     F&& op) {
    static_assert(std::is_integral_v<I>);
    Lanes<uint64_t> addrs = LaneAddrs(base.addr, idx, sizeof(T));
    AccountAtomic(addrs, sizeof(T));
    Lanes<T> out;
    ADGRAPH_VGPU_FOR_ACTIVE(i) {
      T old_value = global_->Load<T>(addrs[i]);
      out[i] = old_value;
      global_->Store<T>(addrs[i], op(old_value, val[i]));
    }
    return out;
  }

  void CountValu() {
    counters_->warp_inst_issued += 1;
    counters_->valu_warp_inst += 1;
    counters_->lane_ops += PopCount(active_);
  }
  void CountReduction() {
    // log2(width) butterfly steps.
    uint32_t steps = 0;
    for (uint32_t w = width_; w > 1; w >>= 1) ++steps;
    counters_->warp_inst_issued += steps;
    counters_->valu_warp_inst += steps;
    counters_->lane_ops += static_cast<uint64_t>(steps) * PopCount(active_);
  }

  void PushMask(LaneMask m, bool divergent) {
    ADGRAPH_DCHECK(depth_ < kMaxDepth);
    mask_stack_[depth_++] = active_;
    active_ = m;
    if (divergent) ++divergence_depth_;
    divergent_stack_[depth_ - 1] = divergent;
  }
  void PopMask() {
    ADGRAPH_DCHECK(depth_ > 0);
    if (divergent_stack_[depth_ - 1]) --divergence_depth_;
    active_ = mask_stack_[--depth_];
  }

  // Non-template accounting implemented in ctx.cc.
  void AccountBranch(bool divergent);
  void AccountGlobal(const Lanes<uint64_t>& addrs, uint32_t access_bytes,
                     bool is_store);
  void AccountAtomic(const Lanes<uint64_t>& addrs, uint32_t access_bytes);
  void AccountShared(const Lanes<uint64_t>& offsets, uint32_t access_bytes,
                     bool is_store);
  void AccumulateLatency(double cycles);

  static constexpr uint32_t kMaxDepth = 64;

  const ArchConfig* arch_;
  const TimingParams* params_;
  AddressSpace* global_;
  CacheModel* l1_ = nullptr;
  CacheModel* l2_;
  SharedMemory* smem_;
  KernelCounters* counters_;

  uint32_t grid_dim_;
  uint32_t block_dim_;
  uint32_t block_id_ = 0;
  uint32_t warp_in_block_;
  uint32_t width_;

  LaneMask entry_mask_ = 0;
  LaneMask active_ = 0;
  LaneMask mask_stack_[kMaxDepth];
  bool divergent_stack_[kMaxDepth] = {};
  uint32_t depth_ = 0;
  uint32_t divergence_depth_ = 0;
  bool at_barrier_ = false;
};

}  // namespace adgraph::vgpu

#endif  // ADGRAPH_VGPU_CTX_H_

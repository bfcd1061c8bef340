#include <gtest/gtest.h>

#include <bit>
#include <list>
#include <set>
#include <vector>

#include "util/random.h"
#include "vgpu/mem/address_space.h"
#include "vgpu/mem/cache.h"
#include "vgpu/mem/coalescer.h"
#include "vgpu/mem/shared_mem.h"

namespace adgraph::vgpu {
namespace {

// ---------------------------------------------------------- AddressSpace

TEST(AddressSpaceTest, AllocatesDistinctAlignedAddresses) {
  AddressSpace mem(1 << 20);
  auto a = mem.Allocate(100);
  auto b = mem.Allocate(100);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.value() % 256, 0u);
  EXPECT_EQ(b.value() % 256, 0u);
  EXPECT_NE(a.value(), 0u) << "null address must never be handed out";
}

TEST(AddressSpaceTest, EnforcesCapacity) {
  AddressSpace mem(1024);
  auto a = mem.Allocate(512);
  ASSERT_TRUE(a.ok());
  auto b = mem.Allocate(1024);
  ASSERT_FALSE(b.ok());
  EXPECT_TRUE(b.status().IsOutOfMemory());
}

TEST(AddressSpaceTest, FreeMakesRoom) {
  AddressSpace mem(1024);
  auto a = mem.Allocate(768);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(mem.Allocate(768).ok());
  ASSERT_TRUE(mem.Free(a.value()).ok());
  EXPECT_TRUE(mem.Allocate(768).ok());
}

TEST(AddressSpaceTest, ReusesFreedBlocksFirstFit) {
  AddressSpace mem(1 << 20);
  uint64_t a = mem.Allocate(256).value();
  uint64_t b = mem.Allocate(256).value();
  (void)b;
  ASSERT_TRUE(mem.Free(a).ok());
  uint64_t c = mem.Allocate(128).value();
  EXPECT_EQ(c, a) << "freed block should be reused";
}

TEST(AddressSpaceTest, CoalescesAdjacentFreeBlocks) {
  AddressSpace mem(4096);
  uint64_t a = mem.Allocate(1024).value();
  uint64_t b = mem.Allocate(1024).value();
  uint64_t c = mem.Allocate(1024).value();
  (void)c;
  ASSERT_TRUE(mem.Free(a).ok());
  ASSERT_TRUE(mem.Free(b).ok());
  // a+b coalesced: a 2048-byte request fits in the hole.
  auto d = mem.Allocate(2048);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), a);
}

TEST(AddressSpaceTest, FreeUnknownAddressFails) {
  AddressSpace mem(4096);
  EXPECT_FALSE(mem.Free(12345).ok());
  EXPECT_TRUE(mem.Free(0).ok()) << "freeing null is a no-op";
}

TEST(AddressSpaceTest, UsedAndPeakTracking) {
  AddressSpace mem(1 << 20);
  EXPECT_EQ(mem.used_bytes(), 0u);
  uint64_t a = mem.Allocate(1000).value();  // rounds to 1024
  EXPECT_EQ(mem.used_bytes(), 1024u);
  uint64_t b = mem.Allocate(10).value();  // rounds to 256
  EXPECT_EQ(mem.used_bytes(), 1280u);
  ASSERT_TRUE(mem.Free(a).ok());
  ASSERT_TRUE(mem.Free(b).ok());
  EXPECT_EQ(mem.used_bytes(), 0u);
  EXPECT_EQ(mem.peak_used_bytes(), 1280u);
}

TEST(AddressSpaceTest, ReadWriteRoundTrip) {
  AddressSpace mem(1 << 16);
  uint64_t addr = mem.Allocate(64).value();
  uint32_t data[4] = {1, 2, 3, 4};
  mem.Write(addr, data, sizeof(data));
  uint32_t back[4] = {};
  mem.Read(addr, back, sizeof(back));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(back[i], data[i]);
  EXPECT_EQ(mem.Load<uint32_t>(addr + 8), 3u);
  mem.Store<uint32_t>(addr + 8, 99);
  EXPECT_EQ(mem.Load<uint32_t>(addr + 8), 99u);
}

TEST(AddressSpaceTest, FillWritesBytes) {
  AddressSpace mem(1 << 16);
  uint64_t addr = mem.Allocate(16).value();
  mem.Fill(addr, 0xAB, 16);
  EXPECT_EQ(mem.Load<uint8_t>(addr + 15), 0xAB);
}

TEST(AddressSpaceTest, ZeroByteAllocationGetsUniqueAddress) {
  AddressSpace mem(1 << 16);
  uint64_t a = mem.Allocate(0).value();
  uint64_t b = mem.Allocate(0).value();
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------- Cache

TEST(CacheTest, MissThenHit) {
  CacheModel cache(1024, 64, 4);
  EXPECT_FALSE(cache.Access(0));
  EXPECT_TRUE(cache.Access(0));
  EXPECT_TRUE(cache.Access(63)) << "same line";
  EXPECT_FALSE(cache.Access(64)) << "next line";
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CacheTest, LruEvictionWithinSet) {
  // 4 sets x 2 ways x 64B lines = 512 B.
  CacheModel cache(512, 64, 2);
  // Lines 0, 4, 8 all map to set 0 (line % 4).
  uint64_t l0 = 0 * 64, l4 = 4 * 64, l8 = 8 * 64;
  EXPECT_FALSE(cache.Access(l0));
  EXPECT_FALSE(cache.Access(l4));
  EXPECT_TRUE(cache.Access(l0));   // refresh l0
  EXPECT_FALSE(cache.Access(l8));  // evicts l4 (LRU)
  EXPECT_TRUE(cache.Access(l0));
  EXPECT_FALSE(cache.Access(l4)) << "l4 was evicted";
}

TEST(CacheTest, ZeroSizeNeverHits) {
  CacheModel cache(0, 64, 4);
  EXPECT_FALSE(cache.Access(0));
  EXPECT_FALSE(cache.Access(0));
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(CacheTest, ClearForgetsEverything) {
  CacheModel cache(1024, 64, 4);
  cache.Access(0);
  EXPECT_TRUE(cache.Access(0));
  cache.Clear();
  EXPECT_FALSE(cache.Access(0));
}

TEST(CacheTest, WorkingSetWithinCapacityAllHits) {
  CacheModel cache(8192, 64, 4);  // 128 lines
  for (uint64_t line = 0; line < 64; ++line) cache.Access(line * 64);
  uint64_t misses_before = cache.misses();
  for (int round = 0; round < 3; ++round) {
    for (uint64_t line = 0; line < 64; ++line) {
      EXPECT_TRUE(cache.Access(line * 64));
    }
  }
  EXPECT_EQ(cache.misses(), misses_before);
}

// ------------------------------------------------------------- Coalescer

Lanes<uint64_t> AddrsFrom(std::initializer_list<uint64_t> list) {
  Lanes<uint64_t> out;
  uint32_t i = 0;
  for (uint64_t a : list) out[i++] = a;
  return out;
}

TEST(CoalescerTest, SequentialAccessFullyCoalesces) {
  Lanes<uint64_t> addrs;
  for (uint32_t i = 0; i < 32; ++i) addrs[i] = i * 4;
  auto result = Coalesce(addrs, FullMask(32), 4, 32);
  EXPECT_EQ(result.size(), 4u);  // 128 bytes / 32
  EXPECT_EQ(result.bytes_requested, 128u);
  EXPECT_EQ(result.bytes_transferred, 128u);
}

TEST(CoalescerTest, ScatteredAccessOneSegmentPerLane) {
  Lanes<uint64_t> addrs;
  for (uint32_t i = 0; i < 32; ++i) addrs[i] = i * 1000;
  auto result = Coalesce(addrs, FullMask(32), 4, 32);
  EXPECT_EQ(result.size(), 32u);
  EXPECT_EQ(result.bytes_requested, 128u);
  EXPECT_EQ(result.bytes_transferred, 32u * 32u);
}

TEST(CoalescerTest, SameAddressBroadcastsToOneSegment) {
  Lanes<uint64_t> addrs = Lanes<uint64_t>::Splat(512);
  auto result = Coalesce(addrs, FullMask(64), 8, 32);
  EXPECT_EQ(result.size(), 1u);
  EXPECT_EQ(result.bytes_requested, 64u * 8u);
  EXPECT_EQ(result.bytes_transferred, 32u);
}

TEST(CoalescerTest, InactiveLanesIgnored) {
  auto addrs = AddrsFrom({0, 4096, 8192});
  auto result = Coalesce(addrs, 0b001, 4, 32);  // only lane 0 active
  EXPECT_EQ(result.size(), 1u);
  EXPECT_EQ(result.bytes_requested, 4u);
}

TEST(CoalescerTest, StraddlingAccessTouchesTwoSegments) {
  auto addrs = AddrsFrom({30});  // 8-byte access crossing the 32B boundary
  auto result = Coalesce(addrs, 0b1, 8, 32);
  EXPECT_EQ(result.size(), 2u);
  EXPECT_EQ(result.bytes_transferred, 64u);
}

TEST(CoalescerTest, EmptyMaskProducesNothing) {
  Lanes<uint64_t> addrs = Lanes<uint64_t>::Splat(0);
  auto result = Coalesce(addrs, 0, 4, 32);
  EXPECT_TRUE((result.size() == 0));
  EXPECT_EQ(result.bytes_requested, 0u);
  EXPECT_EQ(result.bytes_transferred, 0u);
}

TEST(CoalescerTest, SegmentsSortedAndDeduplicated) {
  auto addrs = AddrsFrom({96, 0, 96, 32});
  auto result = Coalesce(addrs, 0b1111, 4, 32);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result.segment_addrs[0], 0u);
  EXPECT_EQ(result.segment_addrs[1], 32u);
  EXPECT_EQ(result.segment_addrs[2], 96u);
}

// Differential check: Coalesce must return exactly the ascending set of
// segments a std::set builds from the active lanes' byte ranges.  The order
// matters beyond correctness: it is the order the L1/L2 LRU stamps are
// assigned in, so it fixes every modeled cache counter.
TEST(CoalescerTest, MatchesSetReferenceOnRandomTraffic) {
  Rng rng(2024);
  const uint32_t kAccessBytes[] = {1, 2, 4, 8, 16};
  const uint32_t kSegmentBytes[] = {32, 64, 128};
  for (int round = 0; round < 6000; ++round) {
    const uint32_t width = 1 + static_cast<uint32_t>(rng.Uniform(64));
    const uint32_t access = kAccessBytes[rng.Uniform(5)];
    const uint32_t segment = kSegmentBytes[rng.Uniform(3)];
    LaneMask active = FullMask(width);
    switch (rng.Uniform(4)) {
      case 0: break;                                   // full warp
      case 1: active &= rng.Next64(); break;           // random half
      case 2: active &= rng.Next64() & rng.Next64(); break;  // sparse
      default: active &= 1ull << rng.Uniform(width);   // one lane
    }
    Lanes<uint64_t> addrs;
    const uint64_t base = rng.Uniform(1ull << 40);
    const uint32_t pattern = static_cast<uint32_t>(rng.Uniform(4));
    for (uint32_t lane = 0; lane < width; ++lane) {
      switch (pattern) {
        case 0:  // sequential from an unaligned base
          addrs[lane] = base + uint64_t{lane} * access;
          break;
        case 1:  // scattered over a window small enough to collide
          addrs[lane] = base + rng.Uniform(4096);
          break;
        case 2:  // just below a segment boundary, so accesses straddle
          addrs[lane] = (base / segment + rng.Uniform(8) + 1) * segment -
                        1 - rng.Uniform(access);
          break;
        default:  // scattered over a large range, unaligned
          addrs[lane] = rng.Uniform(1ull << 36);
          break;
      }
    }
    std::set<uint64_t> expected;
    for (uint32_t lane = 0; lane < width; ++lane) {
      if (!LaneActive(active, lane)) continue;
      for (uint64_t s = addrs[lane] / segment;
           s <= (addrs[lane] + access - 1) / segment; ++s) {
        expected.insert(s * segment);
      }
    }
    auto result = Coalesce(addrs, active, access, segment);
    ASSERT_EQ(std::vector<uint64_t>(result.begin(), result.end()),
              std::vector<uint64_t>(expected.begin(), expected.end()))
        << "round " << round << " width " << width << " access " << access
        << " segment " << segment << " pattern " << pattern;
    ASSERT_EQ(result.bytes_requested,
              uint64_t{access} * std::popcount(active));
    ASSERT_EQ(result.bytes_transferred, expected.size() * segment);
  }
}

// --------------------------------------------------- CacheModel vs naive LRU

/// Textbook set-associative LRU: one most-recent-first list per set.
class NaiveLruCache {
 public:
  NaiveLruCache(uint64_t size_bytes, uint32_t line_bytes, uint32_t assoc)
      : line_bytes_(line_bytes),
        assoc_(assoc),
        sets_(size_bytes / (uint64_t{line_bytes} * assoc)) {}

  bool Access(uint64_t addr) {
    if (sets_.empty()) return false;
    const uint64_t line = addr / line_bytes_;
    std::list<uint64_t>& set = sets_[line % sets_.size()];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == line) {
        set.splice(set.begin(), set, it);
        return true;
      }
    }
    set.push_front(line);
    if (set.size() > assoc_) set.pop_back();
    return false;
  }

  void Clear() {
    for (auto& set : sets_) set.clear();
  }

  uint64_t num_sets() const { return sets_.size(); }

 private:
  uint64_t line_bytes_;
  uint32_t assoc_;
  std::vector<std::list<uint64_t>> sets_;
};

struct CacheGeometry {
  const char* what;
  uint64_t size_bytes;
  uint32_t line_bytes;
  uint32_t assoc;
  uint64_t expected_sets;
};

TEST(CacheTest, MatchesNaiveLruOnRandomAndStridedStreams) {
  const uint64_t kA100L2 = 40ull << 20;
  const CacheGeometry kGeometries[] = {
      {"A100/Z100L L1", 128 << 10, 128, 4, 256},
      {"A100 L2", kA100L2, 128, 16, 20480},
      {"A100 L2 at memory_scale 32", kA100L2 / 32, 128, 16, 640},
      {"A100 L2 at memory_scale 3000",
       static_cast<uint64_t>(static_cast<double>(kA100L2) / 3000.0), 128, 16,
       6},
      {"V100 L2", 6ull << 20, 128, 16, 3072},
      {"3-way, 7 sets, 64 B lines", 64 * 3 * 7, 64, 3, 7},
      {"direct-mapped", 4096, 32, 1, 128},
  };
  Rng rng(77);
  for (const CacheGeometry& g : kGeometries) {
    SCOPED_TRACE(g.what);
    CacheModel cache(g.size_bytes, g.line_bytes, g.assoc);
    NaiveLruCache ref(g.size_bytes, g.line_bytes, g.assoc);
    ASSERT_EQ(ref.num_sets(), g.expected_sets);
    const uint64_t lines = g.expected_sets * g.assoc;
    const uint64_t set_stride = g.expected_sets * g.line_bytes;
    uint64_t hits = 0;
    uint64_t misses = 0;
    const int kPhases = 8;
    for (int phase = 0; phase < kPhases; ++phase) {
      if (phase == kPhases / 2) {
        cache.Clear();
        ref.Clear();
      }
      const uint64_t start = rng.Uniform(1ull << 34);
      for (uint64_t i = 0; i < 40000; ++i) {
        uint64_t addr;
        switch (phase % 4) {
          case 0:  // random over ~2x the capacity: hits and misses
            addr = start + rng.Uniform(2 * lines * g.line_bytes);
            break;
          case 1:  // line-strided sweep that wraps inside the capacity
            addr = start + (i % (lines + lines / 4 + 1)) * g.line_bytes;
            break;
          case 2:  // one set, one more line than it has ways: all misses
            addr = start + (i % (g.assoc + 1)) * set_stride;
            break;
          default:  // odd stride with sub-line offsets
            addr = start + i * 7 * g.line_bytes / 3 + rng.Uniform(g.line_bytes);
            break;
        }
        const bool want = ref.Access(addr);
        ASSERT_EQ(cache.Access(addr), want)
            << "phase " << phase << " access " << i << " addr " << addr;
        want ? ++hits : ++misses;
      }
    }
    EXPECT_EQ(cache.hits(), hits);
    EXPECT_EQ(cache.misses(), misses);
    EXPECT_GT(hits, 0u);
    EXPECT_GT(misses, 0u);
  }
}

// ---------------------------------------------------------- SharedMemory

TEST(SharedMemoryTest, LoadStoreRoundTrip) {
  SharedMemory smem(1024, 32);
  smem.Store<uint32_t>(16, 0xDEAD);
  EXPECT_EQ(smem.Load<uint32_t>(16), 0xDEADu);
  smem.Store<double>(24, 2.5);
  EXPECT_EQ(smem.Load<double>(24), 2.5);
}

TEST(SharedMemoryTest, FillResets) {
  SharedMemory smem(64, 32);
  smem.Store<uint32_t>(0, 77);
  smem.Fill(0);
  EXPECT_EQ(smem.Load<uint32_t>(0), 0u);
}

TEST(SharedMemoryTest, ConflictFreeSequential) {
  SharedMemory smem(4096, 32);
  Lanes<uint64_t> offsets;
  for (uint32_t i = 0; i < 32; ++i) offsets[i] = i * 4;  // distinct banks
  EXPECT_EQ(smem.ConflictDegree(offsets, FullMask(32), 4), 1u);
}

TEST(SharedMemoryTest, StrideOf32WordsConflictsFully) {
  SharedMemory smem(8192, 32);
  Lanes<uint64_t> offsets;
  for (uint32_t i = 0; i < 32; ++i) offsets[i] = i * 32 * 4;  // same bank
  EXPECT_EQ(smem.ConflictDegree(offsets, FullMask(32), 4), 32u);
}

TEST(SharedMemoryTest, BroadcastDoesNotConflict) {
  SharedMemory smem(4096, 32);
  Lanes<uint64_t> offsets = Lanes<uint64_t>::Splat(128);
  EXPECT_EQ(smem.ConflictDegree(offsets, FullMask(32), 4), 1u);
}

TEST(SharedMemoryTest, TwoWayConflict) {
  SharedMemory smem(4096, 32);
  Lanes<uint64_t> offsets;
  for (uint32_t i = 0; i < 32; ++i) {
    offsets[i] = (i % 16) * 4 + (i / 16) * 16 * 4 * 32;  // pairs share banks
  }
  EXPECT_EQ(smem.ConflictDegree(offsets, FullMask(32), 4), 2u);
}

TEST(SharedMemoryTest, EmptyMaskZeroDegree) {
  SharedMemory smem(4096, 32);
  Lanes<uint64_t> offsets;
  EXPECT_EQ(smem.ConflictDegree(offsets, 0, 4), 0u);
}

}  // namespace
}  // namespace adgraph::vgpu

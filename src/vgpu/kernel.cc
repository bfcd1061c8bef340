#include "vgpu/kernel.h"

#include <new>

namespace adgraph::vgpu::internal {

namespace {

/// Freed frames of the calling thread.  A request of a size the cache does
/// not hold means a new kernel is starting, so the stale frames are
/// released rather than kept beside the new ones.
class FrameCache {
 public:
  FrameCache() = default;
  FrameCache(const FrameCache&) = delete;
  FrameCache& operator=(const FrameCache&) = delete;
  ~FrameCache() { Release(); }

  void* Take(std::size_t bytes) {
    if (count_ > 0 && bytes_ == bytes) return frames_[--count_];
    Release();
    return ::operator new(bytes);
  }

  void Put(void* frame, std::size_t bytes) noexcept {
    if (count_ > 0 && bytes_ != bytes) Release();
    if (count_ == kCapacity) {
      ::operator delete(frame, bytes);
      return;
    }
    bytes_ = bytes;
    frames_[count_++] = frame;
  }

 private:
  /// One frame per warp of a 1024-thread block of 32-lane warps.
  static constexpr unsigned kCapacity = 32;

  void Release() noexcept {
    while (count_ > 0) ::operator delete(frames_[--count_], bytes_);
  }

  void* frames_[kCapacity];
  std::size_t bytes_ = 0;  ///< size of every cached frame
  unsigned count_ = 0;
};

thread_local FrameCache frame_cache;

}  // namespace

void* AllocateKernelFrame(std::size_t bytes) { return frame_cache.Take(bytes); }

void FreeKernelFrame(void* frame, std::size_t bytes) noexcept {
  frame_cache.Put(frame, bytes);
}

}  // namespace adgraph::vgpu::internal

#ifndef ADGRAPH_VGPU_KERNEL_H_
#define ADGRAPH_VGPU_KERNEL_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>

namespace adgraph::vgpu {

namespace internal {
/// Coroutine-frame allocator behind KernelTask.  Device::Launch frees a
/// block's frames before it creates the next block's, and every warp of a
/// launch runs the same kernel, so frames are recycled through a small
/// per-thread cache matched by size: after a launch's first block, warps
/// start without touching the heap.  Nothing is shared between threads.
void* AllocateKernelFrame(std::size_t bytes);
void FreeKernelFrame(void* frame, std::size_t bytes) noexcept;
}  // namespace internal

/// \brief The return type of a simulated GPU kernel.
///
/// A kernel is a C++20 coroutine executed once per warp/wavefront:
///
/// \code
///   KernelTask MyKernel(Ctx& c, const Params& p) {
///     auto tid = c.GlobalThreadId();
///     ...
///     co_await c.Sync();   // block-level barrier (uniform control flow only)
///     ...
///     co_return;
///   }
/// \endcode
///
/// Kernels that never synchronize simply do not use co_await and must still
/// end with an (implicit or explicit) co_return.  The block scheduler in
/// Device::Launch round-robins the warps of a block between barriers.
///
/// Lifetime rule: parameters captured by reference must outlive the
/// Launch() call (Launch is synchronous, so host-stack params are fine).
class KernelTask {
 public:
  struct promise_type {
    static void* operator new(std::size_t bytes) {
      return internal::AllocateKernelFrame(bytes);
    }
    static void operator delete(void* frame, std::size_t bytes) noexcept {
      internal::FreeKernelFrame(frame, bytes);
    }

    KernelTask get_return_object() {
      return KernelTask(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    // Start suspended; the scheduler performs the first resume.
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { std::terminate(); }
  };

  KernelTask() = default;
  explicit KernelTask(std::coroutine_handle<promise_type> handle)
      : handle_(handle) {}
  KernelTask(KernelTask&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  KernelTask& operator=(KernelTask&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  KernelTask(const KernelTask&) = delete;
  KernelTask& operator=(const KernelTask&) = delete;
  ~KernelTask() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return !handle_ || handle_.done(); }

  /// Runs the warp until its next barrier suspension or completion.
  void Resume() {
    if (handle_ && !handle_.done()) handle_.resume();
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace adgraph::vgpu

#endif  // ADGRAPH_VGPU_KERNEL_H_

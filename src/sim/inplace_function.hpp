// Fixed-capacity, allocation-free callable for the event kernel.
//
// sim::EventFn used to be std::function<void()>, which heap-allocates any
// capture larger than the libstdc++ small-object buffer (16 bytes) — and a
// flooding broadcast schedules thousands of closures per simulated second.
// InplaceFn stores the callable inline in a fixed buffer and *refuses to
// compile* when a capture does not fit, so EventQueue::push can never touch
// the heap for closures. Move-only (captures hold shared_ptrs and buffers
// that should not be silently duplicated), empty-state aware, and dispatch
// is two raw function pointers — no virtual tables, no RTTI.
//
// The capture budget is kEventCaptureBytes (64). Every in-tree event
// closure fits comfortably (the largest, the batched-broadcast arrival in
// net/network.cpp, is 48 bytes); if a new closure trips the static_assert,
// shrink the capture (capture indices instead of objects, pool big state in
// the owner) before considering a budget bump — the buffer size is paid by
// every slot of the event queue. Beware in particular sim::RngStream
// (mt19937_64, ~2.5 KB): pool it in the owning object and capture `this`.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace p2p::sim {

/// Inline capture budget for event closures, in bytes.
inline constexpr std::size_t kEventCaptureBytes = 64;

template <std::size_t Capacity = kEventCaptureBytes,
          std::size_t Align = alignof(std::max_align_t)>
class InplaceFn {
 public:
  /// Empty function; calling it is undefined (asserted in debug builds).
  InplaceFn() noexcept = default;

  /// Implicit conversion from any void() callable, mirroring
  /// std::function. Compile-time rejected if the callable does not fit
  /// the inline buffer or cannot be moved without throwing.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  InplaceFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    static_assert(sizeof(D) <= Capacity,
                  "event closure exceeds the kEventCaptureBytes inline "
                  "budget — shrink the capture (see inplace_function.hpp)");
    static_assert(alignof(D) <= Align,
                  "event closure over-aligned for the inline buffer");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "event closures must be nothrow-move-constructible");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
    invoke_ = &invoke_impl<D>;
    relocate_ = &relocate_impl<D>;
  }

  InplaceFn(InplaceFn&& other) noexcept { move_from(other); }
  InplaceFn& operator=(InplaceFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InplaceFn(const InplaceFn&) = delete;
  InplaceFn& operator=(const InplaceFn&) = delete;
  ~InplaceFn() { reset(); }

  /// Call the stored closure. Pre: non-empty.
  void operator()() { invoke_(storage_); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  /// Destroy the stored closure (releasing captured resources); the
  /// function becomes empty.
  void reset() noexcept {
    if (invoke_ != nullptr) {
      relocate_(nullptr, storage_);
      invoke_ = nullptr;
      relocate_ = nullptr;
    }
  }

 private:
  using InvokeFn = void (*)(void*);
  // Move-construct *dst from *src and destroy *src; with dst == nullptr,
  // just destroy *src. One pointer covers both relocation and disposal.
  using RelocateFn = void (*)(void* dst, void* src);

  template <typename D>
  static void invoke_impl(void* storage) {
    (*static_cast<D*>(storage))();
  }

  template <typename D>
  static void relocate_impl(void* dst, void* src) {
    D* from = static_cast<D*>(src);
    if (dst != nullptr) ::new (dst) D(std::move(*from));
    from->~D();
  }

  void move_from(InplaceFn& other) noexcept {
    if (other.invoke_ != nullptr) {
      other.relocate_(storage_, other.storage_);
      invoke_ = other.invoke_;
      relocate_ = other.relocate_;
      other.invoke_ = nullptr;
      other.relocate_ = nullptr;
    }
  }

  alignas(Align) std::byte storage_[Capacity];
  InvokeFn invoke_ = nullptr;
  RelocateFn relocate_ = nullptr;
};

}  // namespace p2p::sim

// Small-buffer move-only callable for event actions.
//
// The kernel's closures are almost always tiny — `this` plus a couple of
// ids and a timestamp — yet `std::function` heap-allocates many of them
// and drags in RTTI it never uses. `SmallFn` stores any callable whose
// captures fit `kInlineBytes` directly inside the event-pool slot (no
// allocation on the push/pop hot path) and falls back to the heap only for
// oversized closures (e.g. a deferred admission, which carries a whole
// `workload::Job` by value — cold, only under backpressure).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace easched::sim {

class SmallFn {
 public:
  /// Sized to hold every hot-path kernel closure (`this` + ids + a time)
  /// with headroom; measured against the largest datacenter callback.
  static constexpr std::size_t kInlineBytes = 48;

  SmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  /// Destroys the held callable (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs dst from src, then destroys src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
      [](void* dst, void* src) noexcept {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      },
      [](void* p) noexcept { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* p) noexcept { delete *std::launder(reinterpret_cast<Fn**>(p)); },
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace easched::sim

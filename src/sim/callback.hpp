// Move-only `void()` callable with inline storage: the one callback type of
// the event core. Simulator events, host CPU jobs and network deliveries
// all carry one, so the per-event path allocates nothing as long as the
// callable's captures fit `kInlineBytes` (a `this` pointer, a few ids and a
// shared_ptr — the network delivery closure is the largest hot one). A
// larger or throwing-move callable is kept on the heap instead; behaviour
// is the same, only the allocation comes back.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace esh::sim {

class Callback {
 public:
  static constexpr std::size_t kInlineBytes = 72;
  static constexpr std::size_t kInlineAlign = alignof(void*);

  // True when `F` is stored in place (no allocation on construction).
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<F>;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& fn) {
    // An empty std::function or a null function pointer stays empty, as
    // it would in a std::function.
    if constexpr (std::is_pointer_v<D> ||
                  std::is_same_v<D, std::function<void()>>) {
      if (!fn) return;
    }
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Precondition: non-empty.
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs into `to` and destroys the source.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static D& inline_object(void* storage) noexcept {
    return *std::launder(static_cast<D*>(storage));
  }
  template <typename D>
  static D*& heap_pointer(void* storage) noexcept {
    return *std::launder(static_cast<D**>(storage));
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* s) { inline_object<D>(s)(); },
      [](void* from, void* to) noexcept {
        D& source = inline_object<D>(from);
        ::new (to) D(std::move(source));
        source.~D();
      },
      [](void* s) noexcept { inline_object<D>(s).~D(); },
  };
  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* s) { (*heap_pointer<D>(s))(); },
      [](void* from, void* to) noexcept {
        ::new (to) D*(heap_pointer<D>(from));
      },
      [](void* s) noexcept { delete heap_pointer<D>(s); },
  };

  void take(Callback& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(other.storage_, storage_);
    ops_ = std::exchange(other.ops_, nullptr);
  }

  alignas(kInlineAlign) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace esh::sim

#ifndef FABRICSIM_SIM_INLINE_FN_H_
#define FABRICSIM_SIM_INLINE_FN_H_

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace fabricsim {

template <typename Signature, size_t InlineBytes = 96>
class InlineFn;

/// A move-only type-erased callable with an inline buffer: the one
/// callable type on the discrete-event path (Environment::Schedule,
/// Network::Send, WorkQueue/ChannelWorkPool tasks). Unlike
/// std::function, which libstdc++ stores inline only when the callable
/// is trivially copyable and at most 16 bytes, a capture of up to
/// kInlineBytes — `this`, a shared_ptr, a moved ProposalRequest — is
/// stored in place, so scheduling it allocates nothing. Larger or
/// over-aligned callables, and ones that may throw when moved, fall
/// back to one heap allocation. Move-only captures (unique_ptr, a moved
/// request) are allowed because the wrapper itself is never copied.
///
/// The default buffer of 96 bytes fits every callable the actors
/// schedule per transaction: the largest are an endorsement reply (the
/// client plus a ProposalResponse, 96 B) and a proposal (the target
/// peer plus its ProposalRequest, 80 B). Callables that wait in long
/// queues and capture less use a smaller buffer (see TaskFn).
template <typename R, size_t InlineBytes>
class InlineFn<R(), InlineBytes> {
 public:
  /// Bytes of capture stored without allocating.
  static constexpr size_t kInlineBytes = InlineBytes;

  /// True when a callable of type F is stored in the inline buffer.
  template <typename F>
  static constexpr bool FitsInline() {
    return sizeof(F) <= kInlineBytes && alignof(F) <= kAlign &&
           std::is_nothrow_move_constructible_v<F>;
  }

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT: mirrors std::function

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFn> &&
                std::is_invocable_r_v<R, D&>>>
  InlineFn(F&& f) {  // NOLINT: implicit, like std::function
    if constexpr (std::is_pointer_v<D> ||
                  std::is_same_v<D, std::function<R()>>) {
      if (!f) return;  // an empty source makes an empty wrapper
    }
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* boxed = new D(std::forward<F>(f));
      std::memcpy(storage_, &boxed, sizeof(boxed));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { TakeFrom(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }

  InlineFn& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Calls the stored callable. Must not be empty.
  R operator()() { return ops_->invoke(storage_); }

 private:
  static constexpr size_t kAlign = alignof(void*);

  /// Per-type operations. A null `relocate` means the stored bytes may
  /// be copied as they are; a null `destroy` means nothing to run.
  struct Ops {
    R (*invoke)(void* storage);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static D* Inline(void* storage) {
    return std::launder(static_cast<D*>(storage));
  }
  template <typename D>
  static D* Boxed(void* storage) {
    D* boxed;
    std::memcpy(&boxed, storage, sizeof(boxed));
    return boxed;
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) -> R { return std::invoke(*Inline<D>(s)); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* from, void* to) noexcept {
              D* src = Inline<D>(from);
              ::new (to) D(std::move(*src));
              src->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* s) noexcept { Inline<D>(s)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s) -> R { return std::invoke(*Boxed<D>(s)); },
      nullptr,  // moving the box moves the pointer
      [](void* s) noexcept { delete Boxed<D>(s); },
  };

  void TakeFrom(InlineFn& other) noexcept {
    if (other.ops_ == nullptr) return;
    if (other.ops_->relocate == nullptr) {
      std::memcpy(storage_, other.storage_, kInlineBytes);
    } else {
      other.ops_->relocate(other.storage_, storage_);
    }
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  void Reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  alignas(kAlign) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace fabricsim

#endif  // FABRICSIM_SIM_INLINE_FN_H_

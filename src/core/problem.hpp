// Problem model: classes of problems with alpha-bisectors (Definition 1 of
// the paper).
//
// A class P of problems with weight function w has alpha-bisectors
// (0 < alpha <= 1/2) if every p in P can be divided into p1, p2 with
//   w(p1) + w(p2) = w(p)   and   w(p1), w(p2) in [alpha w(p), (1-alpha) w(p)].
//
// The load-balancing algorithms in this library are templates over any type
// satisfying the Bisectable concept below; a type-erased AnyProblem is
// provided for API boundaries where templates are inconvenient.
//
// AnyProblem storage: the handle carries a small inline buffer
// (kInlineSize bytes).  Problems that fit -- every value-type class in
// src/problems/, pinned by static_asserts there -- are stored in place, so
// wrapping and (crucially) bisect() on the erased path perform no heap
// allocation: the two children of an inline problem are constructed
// directly inside the child handles.  Oversized problems live in a single
// heap cell each.
#pragma once

#include <concepts>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace lbb::core {

/// A problem that can report its weight and be bisected into two
/// subproblems.  bisect() may consume/mutate the problem; algorithms call it
/// at most once per problem instance.  Weights must be positive and satisfy
/// w(p1) + w(p2) == w(p) up to floating-point rounding.
template <typename P>
concept Bisectable =
    std::movable<P> && requires(P& p, const P& cp) {
      { cp.weight() } -> std::convertible_to<double>;
      { p.bisect() } -> std::convertible_to<std::pair<P, P>>;
    };

/// Opt-in for HF's tree walk (detail::hf_walk): specialize to true
/// next to a problem class whose bisect() is pure -- bisecting the problem,
/// or a copy, again yields the same children.  Not inferred from a const
/// bisect(), which may still read or change mutable state.
template <typename P>
inline constexpr bool pure_bisect_v = false;

/// Opt-in for BA's skip under the max sink (detail::ba_run): specialize to
/// true next to a problem class in which, for a positive weight, no child
/// outweighs its parent.  Unlike the walk's assumptions, nothing checks
/// this at run time: a skipped subtree is never bisected.
template <typename P>
inline constexpr bool monotone_bisect_v = false;

/// Type-erased problem handle (for non-template API surfaces and examples
/// mixing problem classes).  Wraps any Bisectable type.
///
/// Ownership contract: move-only.  Copying is deliberately deleted rather
/// than deep-copying -- bisect() may consume the wrapped problem, so two
/// handles to one logical problem would be a correctness trap; wrap a copy
/// of the concrete problem instead.  A moved-from handle is empty:
/// has_value() == false, and weight()/bisect() must not be called on it.
class AnyProblem {
 public:
  /// Problems up to this size (and at most fundamental alignment) are
  /// stored inline in the handle; 48 bytes covers every problem class this
  /// library ships (NoisyWeightProblem<SyntheticProblem> is exactly 48).
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  /// True when P is stored in the handle's inline buffer (no allocation on
  /// wrap or bisect).  Nothrow-movability is required because handle moves
  /// are noexcept.
  template <typename P>
  static constexpr bool fits_inline_v =
      sizeof(P) <= kInlineSize && alignof(P) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<P>;

  AnyProblem() = default;

  template <Bisectable P>
    requires(!std::same_as<std::decay_t<P>, AnyProblem>)
  explicit AnyProblem(P problem) {
    emplace<P>(std::move(problem));
  }

  AnyProblem(AnyProblem&& other) noexcept { steal(other); }
  AnyProblem& operator=(AnyProblem&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(other);
    }
    return *this;
  }

  // See the ownership contract in the class comment.
  AnyProblem(const AnyProblem&) = delete;
  AnyProblem& operator=(const AnyProblem&) = delete;

  ~AnyProblem() { destroy(); }

  /// True if this handle holds a problem (false once moved from).
  [[nodiscard]] bool has_value() const noexcept { return vt_ != nullptr; }

  /// Weight of the wrapped problem.  Requires has_value().
  [[nodiscard]] double weight() const { return vt_->weight(*this); }

  /// Bisects the wrapped problem.  Requires has_value().
  [[nodiscard]] std::pair<AnyProblem, AnyProblem> bisect() {
    std::pair<AnyProblem, AnyProblem> children;
    vt_->bisect(*this, children.first, children.second);
    return children;
  }

 private:
  struct VTable {
    double (*weight)(const AnyProblem&);
    void (*bisect)(AnyProblem&, AnyProblem&, AnyProblem&);
    void (*destroy)(AnyProblem&) noexcept;
    void (*relocate)(AnyProblem& dst, AnyProblem& src) noexcept;
  };

  template <Bisectable P>
  struct Ops {
    static P& get(AnyProblem& self) noexcept {
      if constexpr (fits_inline_v<P>) {
        return *std::launder(reinterpret_cast<P*>(self.storage_.buf));
      } else {
        return *static_cast<P*>(self.storage_.ptr);
      }
    }
    static const P& get(const AnyProblem& self) noexcept {
      if constexpr (fits_inline_v<P>) {
        return *std::launder(reinterpret_cast<const P*>(self.storage_.buf));
      } else {
        return *static_cast<const P*>(self.storage_.ptr);
      }
    }

    static double weight(const AnyProblem& self) { return get(self).weight(); }

    static void bisect(AnyProblem& self, AnyProblem& left, AnyProblem& right) {
      auto [a, b] = get(self).bisect();
      left.emplace<P>(std::move(a));
      right.emplace<P>(std::move(b));
    }

    static void destroy(AnyProblem& self) noexcept {
      if constexpr (fits_inline_v<P>) {
        get(self).~P();
      } else {
        delete &get(self);
      }
    }

    static void relocate(AnyProblem& dst, AnyProblem& src) noexcept {
      if constexpr (fits_inline_v<P>) {
        ::new (static_cast<void*>(dst.storage_.buf)) P(std::move(get(src)));
        get(src).~P();
      } else {
        dst.storage_.ptr = src.storage_.ptr;
      }
    }

    static constexpr VTable vtable{&Ops::weight, &Ops::bisect, &Ops::destroy,
                                   &Ops::relocate};
  };

  /// Installs `problem` into an EMPTY handle.
  template <Bisectable P>
  void emplace(P problem) {
    if constexpr (fits_inline_v<P>) {
      ::new (static_cast<void*>(storage_.buf)) P(std::move(problem));
    } else {
      storage_.ptr = new P(std::move(problem));
    }
    vt_ = &Ops<P>::vtable;
  }

  void destroy() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(*this);
      vt_ = nullptr;
    }
  }

  /// Takes `src`'s problem into this EMPTY handle; `src` becomes empty.
  void steal(AnyProblem& src) noexcept {
    vt_ = src.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(*this, src);
      src.vt_ = nullptr;
    }
  }

  union Storage {
    constexpr Storage() noexcept : ptr(nullptr) {}
    void* ptr;  ///< an oversized problem's heap cell
    alignas(kInlineAlign) std::byte buf[kInlineSize];
  } storage_;
  const VTable* vt_ = nullptr;
};

static_assert(Bisectable<AnyProblem>);

}  // namespace lbb::core

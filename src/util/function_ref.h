/**
 * @file
 * FunctionRef: a non-owning, non-allocating reference to a callable,
 * in the mold of llvm::function_ref / C++26 std::function_ref.
 *
 * The heap's hot iteration paths (forEachObject,
 * forEachObjectWithCharge) used to take std::function, which may
 * heap-allocate at the call site and adds a double indirection per
 * invocation. FunctionRef is two words (context pointer + trampoline
 * pointer), never allocates, and each call is one direct indirect
 * call — the right shape for a visitor invoked once per live object.
 *
 * Lifetime rule: a FunctionRef does not extend the callable's life.
 * It is safe exactly where these APIs use it — as a parameter bound to
 * a lambda for the duration of one call — and must never be stored
 * beyond the full expression that created it.
 */

#ifndef LP_UTIL_FUNCTION_REF_H
#define LP_UTIL_FUNCTION_REF_H

#include <memory>
#include <type_traits>
#include <utility>

namespace lp {

template <typename Signature> class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)>
{
  public:
    /** Bind to any callable invocable as R(Args...). Implicit, so call
     *  sites keep passing lambdas exactly as they did std::function. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                  std::is_invocable_r_v<R, F &, Args...>>>
    FunctionRef(F &&f) // NOLINT(google-explicit-constructor)
        : obj_(const_cast<void *>(
              static_cast<const void *>(std::addressof(f)))),
          call_([](void *obj, Args... args) -> R {
              return (*static_cast<std::remove_reference_t<F> *>(obj))(
                  std::forward<Args>(args)...);
          })
    {}

    R
    operator()(Args... args) const
    {
        return call_(obj_, std::forward<Args>(args)...);
    }

  private:
    void *obj_;
    R (*call_)(void *, Args...);
};

} // namespace lp

#endif // LP_UTIL_FUNCTION_REF_H

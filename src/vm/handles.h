/**
 * @file
 * Root-set abstractions: handles (the moral equivalent of stack and
 * register references) and global roots (statics).
 *
 * Because any allocation can trigger a collection, application code
 * must never hold a bare Object* across an allocating call; it holds a
 * Handle inside a HandleScope instead. The collector enumerates every
 * live scope's slots plus all global roots as the program's roots —
 * the paper's "registers, stacks, and statics".
 *
 * Root slots hold clean (untagged) references: the barrier protocol
 * only applies to heap edges, so reading through a handle is tag-free.
 */

#ifndef LP_VM_HANDLES_H
#define LP_VM_HANDLES_H

#include <cstddef>
#include <deque>
#include <mutex>
#include <unordered_set>

#include "object/ref.h"
#include "util/function_ref.h"
#include "util/logging.h"

namespace lp {

class Object;
class RootTable;

/**
 * A rooted reference. A Handle aliases one slot owned by its
 * HandleScope; copying a Handle aliases the same slot (both names see
 * assignments through either). Create a fresh slot via
 * HandleScope::handle() when independent roots are needed.
 */
class Handle
{
  public:
    Handle() = default;
    explicit Handle(ref_t *slot) : slot_(slot) {}

    /** The referenced object, or nullptr. */
    Object *
    get() const
    {
        return slot_ ? refTarget(*slot_) : nullptr;
    }

    /** Re-point the underlying root slot. */
    void
    set(Object *obj)
    {
        LP_ASSERT(slot_, "assigning through an empty handle");
        *slot_ = makeRef(obj);
    }

    bool empty() const { return slot_ == nullptr; }
    explicit operator bool() const { return get() != nullptr; }
    Object *operator->() const { return get(); }

  private:
    ref_t *slot_ = nullptr;
};

/**
 * A scope owning root slots. Typically one per mutator task frame.
 * Slots live in a deque so their addresses are stable for the
 * collector. Scopes register with the runtime's RootTable on
 * construction and deregister on destruction; nesting is arbitrary.
 */
class HandleScope
{
  public:
    explicit HandleScope(RootTable &table);
    ~HandleScope();

    HandleScope(const HandleScope &) = delete;
    HandleScope &operator=(const HandleScope &) = delete;

    /** Create a new root slot holding @p obj. */
    Handle handle(Object *obj = nullptr);

    /** Number of slots created in this scope. */
    std::size_t size() const { return slots_.size(); }

    /** Visit every slot (collector use). */
    void
    forEachSlot(FunctionRef<void(ref_t *)> fn)
    {
        for (ref_t &slot : slots_)
            fn(&slot);
    }

  private:
    RootTable &table_;
    std::deque<ref_t> slots_;
};

/**
 * A static/global root. Useful for the long-lived structures the leak
 * workloads hang their heaps off (e.g. Eclipse's NavigationHistory).
 */
class GlobalRoot
{
  public:
    explicit GlobalRoot(RootTable &table, Object *obj = nullptr);
    ~GlobalRoot();

    GlobalRoot(const GlobalRoot &) = delete;
    GlobalRoot &operator=(const GlobalRoot &) = delete;

    Object *get() const { return refTarget(slot_); }
    void set(Object *obj) { slot_ = makeRef(obj); }
    explicit operator bool() const { return get() != nullptr; }
    Object *operator->() const { return get(); }

    ref_t *slot() { return &slot_; }

  private:
    RootTable &table_;
    ref_t slot_ = 0;
};

/** The runtime's registry of scopes and global roots. */
class RootTable
{
  public:
    void registerScope(HandleScope *scope);
    void unregisterScope(HandleScope *scope);
    void registerGlobal(GlobalRoot *root);
    void unregisterGlobal(GlobalRoot *root);

    /** Enumerate every root slot. Runs with the world stopped. */
    void forEachRoot(FunctionRef<void(ref_t *)> fn);

    std::size_t scopeCount() const;
    std::size_t globalCount() const;

  private:
    mutable std::mutex mutex_;
    std::unordered_set<HandleScope *> scopes_;
    std::unordered_set<GlobalRoot *> globals_;
};

} // namespace lp

#endif // LP_VM_HANDLES_H

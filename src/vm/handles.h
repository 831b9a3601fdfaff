/**
 * @file
 * Root-set abstractions: handles (the moral equivalent of stack and
 * register references) and global roots (statics).
 *
 * Because any allocation can trigger a collection, application code
 * must never hold a bare Object* across an allocating call; it holds a
 * Handle inside a HandleScope instead. A scope saves the top of its
 * thread's handle stack (in the ThreadRegistry entry) on entry and
 * restores it on exit, taking no lock. The collector enumerates each
 * registered thread's last-allocation slot and handle stack, then the
 * global roots in creation order — the paper's "registers, stacks,
 * and statics".
 *
 * Root slots hold clean (untagged) references: the barrier protocol
 * only applies to heap edges, so reading through a handle is tag-free.
 */

#ifndef LP_VM_HANDLES_H
#define LP_VM_HANDLES_H

#include <mutex>

#include "gc/tracer.h"
#include "object/ref.h"
#include "threads/safepoint.h"
#include "util/function_ref.h"
#include "util/logging.h"

namespace lp {

class GlobalRoot;
class Object;

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
 * The runtime's root set: each registered thread's slots and the
 * global roots, an intrusive list in creation order.
 */
class RootTable : public RootProvider
{
  public:
    explicit RootTable(ThreadRegistry &threads) : threads_(threads) {}

    /** Every thread's slots, then the globals (world stopped). */
    void forEachRoot(FunctionRef<void(ref_t *)> fn) override;

  private:
    friend class HandleScope;
    friend class GlobalRoot;

    ThreadRegistry &threads_;
    std::mutex mutex_; //!< guards the globals list
    GlobalRoot *first_ = nullptr;
    GlobalRoot *last_ = nullptr;
};

/**
 * A scope owning root slots on the calling thread's handle stack.
 * Typically one per mutator task frame. A scope belongs to the
 * registered mutator that opened it, and scopes close in LIFO order:
 * handle() and the destructor panic unless this is the thread's
 * innermost open scope. Its slots are released when it closes.
 */
class HandleScope
{
  public:
    explicit HandleScope(RootTable &table)
    {
        ThreadRegistry::ThreadState *self = table.threads_.current();
        LP_ASSERT(self, "handle scope opened on a thread that is not a "
                        "registered mutator");
        stack_ = &self->handles;
        saved_ = stack_->mark;
        stack_->mark.scope = this;
    }

    ~HandleScope()
    {
        LP_ASSERT(stack_->mark.scope == this, "handle scopes must close innermost first");
        stack_->mark = saved_;
    }

    HandleScope(const HandleScope &) = delete;
    HandleScope &operator=(const HandleScope &) = delete;

    /** Create a new root slot holding @p obj. */
    Handle
    handle(Object *obj = nullptr)
    {
        LP_ASSERT(stack_->mark.scope == this,
                  "handle() on a scope that is not the thread's innermost");
        return Handle(stack_->push(makeRef(obj)));
    }

  private:
    HandleStack *stack_;
    HandleStack::Mark saved_;
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

  private:
    friend class RootTable;
    RootTable &table_;
    ref_t slot_ = 0;
    GlobalRoot *prev_ = nullptr; //!< neighbours in creation order,
    GlobalRoot *next_ = nullptr; //!< guarded by the table's mutex
};

} // namespace lp

#endif // LP_VM_HANDLES_H

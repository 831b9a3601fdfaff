/**
 * @file
 * Managed singly linked list.
 *
 * The canonical leaking container: ListLeak grows one forever, and the
 * EclipseDiff model's NavigationHistory is a list the program *does*
 * traverse (keeping the entries live) while each entry roots a large
 * dead subtree. Traversal goes through the read barrier, so walking a
 * list is a "use" of every node — exactly the liveness signal leak
 * pruning keys on.
 *
 * Layout:
 *   List: ref slot 0 = head node; data = {u64 size}
 *   Node: ref slot 0 = next, ref slot 1 = value
 */

#ifndef LP_COLLECTIONS_MANAGED_LIST_H
#define LP_COLLECTIONS_MANAGED_LIST_H

#include <functional>
#include <string>

#include "vm/runtime.h"

namespace lp {

class ManagedList
{
  public:
    /** Registers "<prefix>.List" and "<prefix>.ListNode" in @p rt. */
    ManagedList(Runtime &rt, const std::string &prefix);

    /** Allocate an empty list. */
    Object *create();

    /**
     * Prepend @p value. Roots @p value internally, so the caller only
     * needs @p list itself rooted.
     */
    void pushFront(Object *list, Object *value);

    /** Remove and return the first value, or nullptr when empty. */
    Object *popFront(Object *list);

    /** Element count (data field; does not touch nodes). */
    std::size_t size(Object *list) const;

    /**
     * Visit every value front to back, reading each node and value
     * reference through the barrier. Throws InternalError if the walk
     * crosses a pruned reference.
     */
    void forEach(Object *list, const std::function<void(Object *)> &fn);

    /**
     * Visit at most @p limit values front to back (barrier reads).
     * Models code that only looks at the recent part of a history.
     */
    void forEachLimited(Object *list, std::size_t limit,
                        const std::function<void(Object *)> &fn);

    /**
     * Walk only the node spine (next references) without touching the
     * values: how a container can keep its entries live while what
     * they reference stays stale.
     */
    void touchSpine(Object *list);

    /** Value at @p index (barrier reads; linear time). */
    Object *get(Object *list, std::size_t index);

  private:
    Runtime &rt_;
    class_id_t list_cls_;
    class_id_t node_cls_;
};

} // namespace lp

#endif // LP_COLLECTIONS_MANAGED_LIST_H

/**
 * @file
 * Managed growable vector (ArrayList-like): a header object holding a
 * reference to an Object[] backing store that doubles on demand.
 *
 * SPECjbb2000's order-processing list is modeled with one of these:
 * the benchmark "processes all objects in a list including those that
 * the programmer intended to remove", so iteration keeps every element
 * live — the live-heap-growth case leak pruning cannot fix.
 *
 * Layout:
 *   Vector:  ref slot 0 = storage (Object[]); data = {u64 size}
 */

#ifndef LP_COLLECTIONS_MANAGED_VECTOR_H
#define LP_COLLECTIONS_MANAGED_VECTOR_H

#include <functional>
#include <string>

#include "vm/runtime.h"

namespace lp {

class ManagedVector
{
  public:
    /** Registers "<prefix>.Vector" and "<prefix>.Object[]" in @p rt. */
    ManagedVector(Runtime &rt, const std::string &prefix);

    /** Allocate an empty vector with @p initial_capacity slots. */
    Object *create(std::size_t initial_capacity = 8);

    /** Append @p value, growing the backing array if needed. */
    void push(Object *vec, Object *value);

    /** Element at @p index (barrier read). */
    Object *get(Object *vec, std::size_t index);

    /** Overwrite element at @p index. */
    void set(Object *vec, std::size_t index, Object *value);

    /** Logical size (data field). */
    std::size_t size(Object *vec) const;

    /** Capacity of the current backing array. */
    std::size_t capacity(Object *vec);

    /** Drop the last @p n elements (clears their slots). */
    void truncate(Object *vec, std::size_t n);

    /** Visit every element through the barrier. */
    void forEach(Object *vec, const std::function<void(Object *)> &fn);

  private:
    Runtime &rt_;
    class_id_t vector_cls_;
    class_id_t storage_cls_;
};

} // namespace lp

#endif // LP_COLLECTIONS_MANAGED_VECTOR_H

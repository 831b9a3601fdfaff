/**
 * @file
 * Managed open-addressing hash map from integer keys to objects.
 *
 * Built to reproduce the MySQL leak's liveness structure (paper
 * Section 6): the JDBC layer keeps executed statements in a hash
 * table; "when MySQL causes the size of one of its hash tables to
 * grow, it accesses all the elements to rehash them" — so the table
 * and statements are live even though nothing else uses them. Here,
 * growth rehashes every entry through the read barrier, producing that
 * exact access pattern.
 *
 * Layout:
 *   Map:    ref slot 0 = entries (Object[]); data = {u64 size}
 *   Entry:  ref slot 0 = value; data = {u64 key}
 */

#ifndef LP_COLLECTIONS_MANAGED_HASH_MAP_H
#define LP_COLLECTIONS_MANAGED_HASH_MAP_H

#include <cstdint>
#include <functional>
#include <string>

#include "vm/runtime.h"

namespace lp {

class ManagedHashMap
{
  public:
    /**
     * Registers "<prefix>.HashMap", "<prefix>.HashEntry" and
     * "<prefix>.HashEntry[]" in @p rt.
     */
    ManagedHashMap(Runtime &rt, const std::string &prefix);

    /** Allocate an empty map with @p initial_capacity buckets. */
    Object *create(std::size_t initial_capacity = 16);

    /** Insert or overwrite @p key -> @p value. */
    void put(Object *map, std::uint64_t key, Object *value);

    /** Look up @p key; nullptr if absent. */
    Object *get(Object *map, std::uint64_t key);

    /** Remove @p key; returns the removed value or nullptr. */
    Object *remove(Object *map, std::uint64_t key);

    /** Number of mappings (data field). */
    std::size_t size(Object *map) const;

    /** Bucket count of the current table. */
    std::size_t capacity(Object *map);

    /** Visit every (key, value) through the barrier. */
    void forEach(Object *map,
                 const std::function<void(std::uint64_t, Object *)> &fn);

    /** Rehashes performed (diagnostic: the MySQL "live" signal). */
    std::uint64_t rehashCount() const { return rehashes_; }

  private:
    static std::size_t slotFor(std::uint64_t key, std::size_t capacity);
    void grow(Object *map);
    void insertEntry(Object *table, Object *entry, std::uint64_t key);

    Runtime &rt_;
    class_id_t map_cls_;
    class_id_t entry_cls_;
    class_id_t table_cls_;
    std::uint64_t rehashes_ = 0;
};

} // namespace lp

#endif // LP_COLLECTIONS_MANAGED_HASH_MAP_H

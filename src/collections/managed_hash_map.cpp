#include "collections/managed_hash_map.h"

#include "collections/fields.h"
#include "util/hash.h"
#include "vm/handles.h"

namespace lp {

namespace {
// Map layout: data = {u64 size (live), u64 used (live + tombstones)}.
constexpr std::size_t kTableSlot = 0;
constexpr std::size_t kSizeOffset = 0;
constexpr std::size_t kUsedOffset = 8;
// Entry layout: ref slot 0 = value; data = {u64 key, u64 deleted}.
constexpr std::size_t kValueSlot = 0;
constexpr std::size_t kKeyOffset = 0;
constexpr std::size_t kDeletedOffset = 8;
} // namespace

ManagedHashMap::ManagedHashMap(Runtime &rt, const std::string &prefix)
    : rt_(rt),
      map_cls_(rt.defineClass(prefix + ".HashMap", 1, 16)),
      entry_cls_(rt.defineClass(prefix + ".HashEntry", 1, 16)),
      table_cls_(rt.defineRefArrayClass(prefix + ".HashEntry[]"))
{}

Object *
ManagedHashMap::create(std::size_t initial_capacity)
{
    LP_ASSERT(isPowerOfTwo(initial_capacity), "capacity must be 2^n");
    HandleScope scope(rt_.roots());
    Handle table =
        scope.handle(rt_.allocateRefArray(table_cls_, initial_capacity));
    Handle map = scope.handle(rt_.allocate(map_cls_));
    rt_.writeRef(map.get(), kTableSlot, table.get());
    return map.get();
}

std::size_t
ManagedHashMap::slotFor(std::uint64_t key, std::size_t capacity)
{
    return static_cast<std::size_t>(mix64(key)) & (capacity - 1);
}

std::size_t
ManagedHashMap::size(Object *map) const
{
    return readData<std::uint64_t>(rt_, map, kSizeOffset);
}

std::size_t
ManagedHashMap::capacity(Object *map)
{
    return rt_.readRef(map, kTableSlot)->arrayLength();
}

void
ManagedHashMap::insertEntry(Object *table, Object *entry, std::uint64_t key)
{
    const std::size_t cap = table->arrayLength();
    std::size_t idx = slotFor(key, cap);
    while (rt_.readRef(table, idx))
        idx = (idx + 1) & (cap - 1);
    rt_.writeRef(table, idx, entry);
}

void
ManagedHashMap::grow(Object *map)
{
    // Rehash, doubling only when the live count demands it (a
    // tombstone-heavy table rehashes at the same size, purging them).
    // Every surviving entry is read through the barrier here — the
    // whole point: growth makes the map's contents *used*, hence
    // live, hence unprunable.
    ++rehashes_;
    HandleScope scope(rt_.roots());
    Handle hmap = scope.handle(map);
    Handle old_table = scope.handle(rt_.readRef(map, kTableSlot));
    const std::size_t old_cap = old_table.get()->arrayLength();
    const std::size_t new_cap =
        (size(map) + 1) * 4 >= old_cap ? old_cap * 2 : old_cap;
    Handle new_table =
        scope.handle(rt_.allocateRefArray(table_cls_, new_cap));
    for (std::size_t i = 0; i < old_cap; ++i) {
        Object *entry = rt_.readRef(old_table.get(), i);
        if (!entry || readData<std::uint64_t>(rt_, entry, kDeletedOffset))
            continue;
        // Touch the stored object too, the way Java's HashMap rehash
        // invokes hashCode() on every key object: this is what makes
        // the MySQL leak's statements live even though nothing else
        // ever uses them again.
        (void)rt_.readRef(entry, kValueSlot);
        insertEntry(new_table.get(), entry,
                    readData<std::uint64_t>(rt_, entry, kKeyOffset));
    }
    rt_.writeRef(hmap.get(), kTableSlot, new_table.get());
    // Tombstones were dropped by the rehash.
    writeData<std::uint64_t>(rt_, hmap.get(), kUsedOffset, size(hmap.get()));
}

void
ManagedHashMap::put(Object *map, std::uint64_t key, Object *value)
{
    HandleScope scope(rt_.roots());
    Handle hmap = scope.handle(map);
    Handle hvalue = scope.handle(value);

    // Keep the occupancy (live entries plus tombstones — both lengthen
    // probe chains) below half the table.
    if ((readData<std::uint64_t>(rt_, map, kUsedOffset) + 1) * 2 >=
        capacity(map))
        grow(hmap.get());

    Object *table = rt_.readRef(hmap.get(), kTableSlot);
    const std::size_t cap = table->arrayLength();
    std::size_t idx = slotFor(key, cap);
    while (true) {
        Object *entry = rt_.readRef(table, idx);
        if (!entry)
            break;
        if (!readData<std::uint64_t>(rt_, entry, kDeletedOffset) &&
            readData<std::uint64_t>(rt_, entry, kKeyOffset) == key) {
            rt_.writeRef(entry, kValueSlot, hvalue.get()); // overwrite
            return;
        }
        idx = (idx + 1) & (cap - 1);
    }

    Handle entry = scope.handle(rt_.allocate(entry_cls_));
    writeData<std::uint64_t>(rt_, entry.get(), kKeyOffset, key);
    rt_.writeRef(entry.get(), kValueSlot, hvalue.get());
    // Re-read the table: allocating the entry may have collected, and
    // while objects never move, the map could have been grown by a
    // racing thread. (Growth under the same lock pattern as put.)
    table = rt_.readRef(hmap.get(), kTableSlot);
    insertEntry(table, entry.get(), key);
    writeData<std::uint64_t>(rt_, hmap.get(), kSizeOffset, size(hmap.get()) + 1);
    writeData<std::uint64_t>(
        rt_, hmap.get(), kUsedOffset,
        readData<std::uint64_t>(rt_, hmap.get(), kUsedOffset) + 1);
}

Object *
ManagedHashMap::get(Object *map, std::uint64_t key)
{
    Object *table = rt_.readRef(map, kTableSlot);
    const std::size_t cap = table->arrayLength();
    std::size_t idx = slotFor(key, cap);
    while (true) {
        Object *entry = rt_.readRef(table, idx);
        if (!entry)
            return nullptr;
        if (!readData<std::uint64_t>(rt_, entry, kDeletedOffset) &&
            readData<std::uint64_t>(rt_, entry, kKeyOffset) == key) {
            return rt_.readRef(entry, kValueSlot);
        }
        idx = (idx + 1) & (cap - 1);
    }
}

Object *
ManagedHashMap::remove(Object *map, std::uint64_t key)
{
    Object *table = rt_.readRef(map, kTableSlot);
    const std::size_t cap = table->arrayLength();
    std::size_t idx = slotFor(key, cap);
    while (true) {
        Object *entry = rt_.readRef(table, idx);
        if (!entry)
            return nullptr;
        if (!readData<std::uint64_t>(rt_, entry, kDeletedOffset) &&
            readData<std::uint64_t>(rt_, entry, kKeyOffset) == key) {
            Object *value = rt_.readRef(entry, kValueSlot);
            writeData<std::uint64_t>(rt_, entry, kDeletedOffset, 1);
            rt_.writeRef(entry, kValueSlot, nullptr);
            writeData<std::uint64_t>(rt_, map, kSizeOffset, size(map) - 1);
            return value;
        }
        idx = (idx + 1) & (cap - 1);
    }
}

void
ManagedHashMap::forEach(Object *map,
                        const std::function<void(std::uint64_t, Object *)> &fn)
{
    // The bucket array is rooted for the walk, as in
    // ManagedVector::forEach: a collection inside fn or a fault could
    // otherwise move it out of the heap mid-walk.
    HandleScope scope(rt_.roots());
    Handle table = scope.handle(rt_.readRef(map, kTableSlot));
    const std::size_t cap = table.get()->arrayLength();
    for (std::size_t i = 0; i < cap; ++i) {
        Object *entry = rt_.readRef(table.get(), i);
        if (entry && !readData<std::uint64_t>(rt_, entry, kDeletedOffset)) {
            fn(readData<std::uint64_t>(rt_, entry, kKeyOffset),
               rt_.readRef(entry, kValueSlot));
        }
    }
}

} // namespace lp

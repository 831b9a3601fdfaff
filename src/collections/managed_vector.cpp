#include "collections/managed_vector.h"

#include "collections/fields.h"
#include "vm/handles.h"

namespace lp {

namespace {
constexpr std::size_t kStorageSlot = 0;
constexpr std::size_t kSizeOffset = 0;
} // namespace

ManagedVector::ManagedVector(Runtime &rt, const std::string &prefix)
    : rt_(rt),
      vector_cls_(rt.defineClass(prefix + ".Vector", 1, sizeof(std::uint64_t))),
      storage_cls_(rt.defineRefArrayClass(prefix + ".Object[]"))
{}

Object *
ManagedVector::create(std::size_t initial_capacity)
{
    HandleScope scope(rt_.roots());
    Handle storage =
        scope.handle(rt_.allocateRefArray(storage_cls_, initial_capacity));
    Handle vec = scope.handle(rt_.allocate(vector_cls_));
    rt_.writeRef(vec.get(), kStorageSlot, storage.get());
    return vec.get();
}

std::size_t
ManagedVector::size(Object *vec) const
{
    return readData<std::uint64_t>(rt_, vec, kSizeOffset);
}

std::size_t
ManagedVector::capacity(Object *vec)
{
    return rt_.readRef(vec, kStorageSlot)->arrayLength();
}

void
ManagedVector::push(Object *vec, Object *value)
{
    HandleScope scope(rt_.roots());
    Handle hvec = scope.handle(vec);
    Handle hvalue = scope.handle(value);
    const std::size_t n = size(vec);
    Handle storage = scope.handle(rt_.readRef(vec, kStorageSlot));
    if (n == storage.get()->arrayLength()) {
        // Grow by doubling; copying element references is a series of
        // barrier reads, i.e. growth "uses" every element — the same
        // rehash/copy liveness effect the MySQL leak exhibits.
        Handle bigger = scope.handle(
            rt_.allocateRefArray(storage_cls_, n == 0 ? 8 : 2 * n));
        for (std::size_t i = 0; i < n; ++i) {
            rt_.writeRef(bigger.get(), i, rt_.readRef(storage.get(), i));
        }
        rt_.writeRef(hvec.get(), kStorageSlot, bigger.get());
        storage = bigger;
    }
    rt_.writeRef(storage.get(), n, hvalue.get());
    writeData<std::uint64_t>(rt_, hvec.get(), kSizeOffset, n + 1);
}

Object *
ManagedVector::get(Object *vec, std::size_t index)
{
    LP_ASSERT(index < size(vec), "vector index out of range");
    return rt_.readRef(rt_.readRef(vec, kStorageSlot), index);
}

void
ManagedVector::set(Object *vec, std::size_t index, Object *value)
{
    LP_ASSERT(index < size(vec), "vector index out of range");
    rt_.writeRef(rt_.readRef(vec, kStorageSlot), index, value);
}

void
ManagedVector::truncate(Object *vec, std::size_t n)
{
    const std::size_t sz = size(vec);
    const std::size_t drop = n < sz ? n : sz;
    Object *storage = rt_.readRef(vec, kStorageSlot);
    for (std::size_t i = sz - drop; i < sz; ++i)
        rt_.writeRef(storage, i, nullptr);
    writeData<std::uint64_t>(rt_, vec, kSizeOffset, sz - drop);
}

void
ManagedVector::forEach(Object *vec, const std::function<void(Object *)> &fn)
{
    const std::size_t n = size(vec);
    // The backing array is rooted for the walk: under the disk-offload
    // baseline a read may fault an object in, and a collection inside
    // that fault could otherwise move the array this loop reads out of
    // the heap.
    HandleScope scope(rt_.roots());
    Handle storage = scope.handle(rt_.readRef(vec, kStorageSlot));
    for (std::size_t i = 0; i < n; ++i)
        fn(rt_.readRef(storage.get(), i));
}

} // namespace lp

#include "collections/managed_list.h"

#include <cstdint>

#include "collections/fields.h"
#include "vm/handles.h"

namespace lp {

namespace {
constexpr std::size_t kHeadSlot = 0;  // on List
constexpr std::size_t kNextSlot = 0;  // on Node
constexpr std::size_t kValueSlot = 1; // on Node
constexpr std::size_t kSizeOffset = 0;
} // namespace

ManagedList::ManagedList(Runtime &rt, const std::string &prefix)
    : rt_(rt),
      list_cls_(rt.defineClass(prefix + ".List", 1, sizeof(std::uint64_t))),
      node_cls_(rt.defineClass(prefix + ".ListNode", 2, 0))
{}

Object *
ManagedList::create()
{
    return rt_.allocate(list_cls_);
}

void
ManagedList::pushFront(Object *list, Object *value)
{
    HandleScope scope(rt_.roots());
    Handle hlist = scope.handle(list);
    Handle hvalue = scope.handle(value);
    Handle node = scope.handle(rt_.allocate(node_cls_));
    rt_.writeRef(node.get(), kValueSlot, hvalue.get());
    rt_.writeRef(node.get(), kNextSlot, rt_.readRef(hlist.get(), kHeadSlot));
    rt_.writeRef(hlist.get(), kHeadSlot, node.get());
    writeData<std::uint64_t>(rt_, hlist.get(), kSizeOffset,
                             size(hlist.get()) + 1);
}

Object *
ManagedList::popFront(Object *list)
{
    Object *head = rt_.readRef(list, kHeadSlot);
    if (!head)
        return nullptr;
    Object *value = rt_.readRef(head, kValueSlot);
    rt_.writeRef(list, kHeadSlot, rt_.readRef(head, kNextSlot));
    writeData<std::uint64_t>(rt_, list, kSizeOffset, size(list) - 1);
    return value;
}

std::size_t
ManagedList::size(Object *list) const
{
    return readData<std::uint64_t>(rt_, list, kSizeOffset);
}

void
ManagedList::forEach(Object *list, const std::function<void(Object *)> &fn)
{
    forEachLimited(list, SIZE_MAX, fn);
}

void
ManagedList::forEachLimited(Object *list, std::size_t limit,
                            const std::function<void(Object *)> &fn)
{
    // The current node is rooted for the walk: under the disk-offload
    // baseline a collection run inside fn (or inside a fault) could
    // otherwise move it out of the heap before its next slot is read.
    HandleScope scope(rt_.roots());
    Handle node = scope.handle(rt_.readRef(list, kHeadSlot));
    for (std::size_t seen = 0; node.get() && seen < limit; ++seen) {
        fn(rt_.readRef(node.get(), kValueSlot));
        node.set(rt_.readRef(node.get(), kNextSlot));
    }
}

void
ManagedList::touchSpine(Object *list)
{
    for (Object *node = rt_.readRef(list, kHeadSlot); node;
         node = rt_.readRef(node, kNextSlot)) {
    }
}

Object *
ManagedList::get(Object *list, std::size_t index)
{
    Object *node = rt_.readRef(list, kHeadSlot);
    for (std::size_t i = 0; node && i < index; ++i)
        node = rt_.readRef(node, kNextSlot);
    return node ? rt_.readRef(node, kValueSlot) : nullptr;
}

} // namespace lp

/**
 * @file
 * Integration tests for the runtime + collector (no leak pruning):
 * reachability, cycles, roots, finalizers, allocation-triggered GC,
 * and out-of-memory behavior.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/errors.h"
#include "vm/handles.h"
#include "vm/runtime.h"

namespace lp {
namespace {

RuntimeConfig
baseConfig(std::size_t heap_bytes = 8u << 20)
{
    RuntimeConfig cfg;
    cfg.heapBytes = heap_bytes;
    cfg.enableLeakPruning = false;
    cfg.barrierMode = BarrierMode::None;
    return cfg;
}

TEST(GcTest, UnreachableObjectsAreCollected)
{
    Runtime rt(baseConfig());
    const class_id_t cls = rt.defineClass("Node", 1, 0);
    {
        HandleScope scope(rt.roots());
        Handle h = scope.handle(rt.allocate(cls));
        ASSERT_TRUE(h);
        auto outcome = rt.collectNow();
        EXPECT_GE(outcome.objectsMarked, 1u);
    }
    // Scope gone: object is garbage (drop the conservative
    // last-allocation root too).
    rt.releaseAllocationRoot();
    auto outcome = rt.collectNow();
    EXPECT_EQ(outcome.objectsMarked, 0u);
    EXPECT_EQ(outcome.liveBytes, 0u);
}

TEST(GcTest, ReachableChainSurvives)
{
    Runtime rt(baseConfig());
    const class_id_t cls = rt.defineClass("Node", 1, 8);
    HandleScope scope(rt.roots());
    Handle head = scope.handle(rt.allocate(cls));
    // Build a 100-node chain and stamp each node with its index.
    {
        Handle cur = scope.handle(head.get());
        for (int i = 0; i < 99; ++i) {
            Handle next = scope.handle(rt.allocate(cls));
            rt.writeRef(cur.get(), 0, next.get());
            cur.set(next.get());
        }
    }
    rt.collectNow();
    // Whole chain must still be walkable.
    int n = 1;
    for (Object *o = rt.readRef(head.get(), 0); o; o = rt.readRef(o, 0))
        ++n;
    EXPECT_EQ(n, 100);
}

TEST(GcTest, CyclesAreCollectedWhenUnreachable)
{
    Runtime rt(baseConfig());
    const class_id_t cls = rt.defineClass("CycleNode", 1, 0);
    {
        HandleScope scope(rt.roots());
        Handle a = scope.handle(rt.allocate(cls));
        Handle b = scope.handle(rt.allocate(cls));
        rt.writeRef(a.get(), 0, b.get());
        rt.writeRef(b.get(), 0, a.get());
        rt.releaseAllocationRoot();
        auto outcome = rt.collectNow();
        EXPECT_EQ(outcome.objectsMarked, 2u);
    }
    auto outcome = rt.collectNow();
    EXPECT_EQ(outcome.objectsMarked, 0u) << "cycle must die with its roots";
}

TEST(GcTest, GlobalRootsKeepObjectsAlive)
{
    Runtime rt(baseConfig());
    const class_id_t cls = rt.defineClass("Static", 2, 0);
    GlobalRoot root(rt.roots());
    {
        HandleScope scope(rt.roots());
        root.set(rt.allocate(cls));
    }
    rt.releaseAllocationRoot();
    auto outcome = rt.collectNow();
    EXPECT_EQ(outcome.objectsMarked, 1u);
    root.set(nullptr);
    rt.releaseAllocationRoot();
    outcome = rt.collectNow();
    EXPECT_EQ(outcome.objectsMarked, 0u);
}

TEST(GcTest, SharedSubgraphKeptByEitherPath)
{
    Runtime rt(baseConfig());
    const class_id_t cls = rt.defineClass("Diamond", 2, 0);
    HandleScope scope(rt.roots());
    Handle shared = scope.handle(rt.allocate(cls));
    Handle a = scope.handle(rt.allocate(cls));
    Handle b = scope.handle(rt.allocate(cls));
    rt.writeRef(a.get(), 0, shared.get());
    rt.writeRef(b.get(), 0, shared.get());
    shared.set(nullptr); // now only reachable through a and b
    rt.collectNow();
    ASSERT_NE(rt.readRef(a.get(), 0), nullptr);
    EXPECT_EQ(rt.readRef(a.get(), 0), rt.readRef(b.get(), 0));
    // Drop one path: still reachable through the other.
    rt.writeRef(a.get(), 0, nullptr);
    rt.collectNow();
    EXPECT_NE(rt.readRef(b.get(), 0), nullptr);
}

TEST(GcTest, AllocationTriggersCollection)
{
    Runtime rt(baseConfig(1u << 20));
    const class_id_t cls = rt.defineClass("Chunk", 0, 1024);
    const auto before = rt.gcStats().collections;
    // Allocate several heaps' worth of garbage; GC must kick in.
    for (int i = 0; i < 5000; ++i) {
        HandleScope scope(rt.roots());
        scope.handle(rt.allocate(cls));
    }
    EXPECT_GT(rt.gcStats().collections, before);
}

TEST(GcTest, ThrowsOutOfMemoryWhenLiveHeapExceedsCapacity)
{
    Runtime rt(baseConfig(1u << 20));
    const class_id_t cls = rt.defineClass("Retained", 1, 4096);
    HandleScope scope(rt.roots());
    Handle head = scope.handle(nullptr);
    EXPECT_THROW(
        {
            while (true) {
                Object *node = rt.allocate(cls);
                rt.writeRef(node, 0, head.get());
                head.set(node);
            }
        },
        OutOfMemoryError);
}

TEST(GcTest, FinalizersRunExactlyOnceOnReclaim)
{
    int finalized = 0;
    Runtime rt(baseConfig());
    const class_id_t cls =
        rt.defineClass("Closeable", 0, 8, [&](Object *) { ++finalized; });
    {
        HandleScope scope(rt.roots());
        for (int i = 0; i < 10; ++i)
            scope.handle(rt.allocate(cls));
        rt.collectNow();
        EXPECT_EQ(finalized, 0) << "live objects must not finalize";
    }
    rt.releaseAllocationRoot();
    rt.collectNow();
    EXPECT_EQ(finalized, 10);
    rt.collectNow();
    EXPECT_EQ(finalized, 10) << "finalizers must not run twice";
}

TEST(GcTest, ArraysTraceTheirElements)
{
    Runtime rt(baseConfig());
    const class_id_t arr_cls = rt.defineRefArrayClass("Arr");
    const class_id_t elem_cls = rt.defineClass("Elem", 0, 16);
    HandleScope scope(rt.roots());
    Handle arr = scope.handle(rt.allocateRefArray(arr_cls, 50));
    for (std::size_t i = 0; i < 50; ++i) {
        HandleScope inner(rt.roots());
        Handle e = inner.handle(rt.allocate(elem_cls));
        rt.writeRef(arr.get(), i, e.get());
    }
    auto outcome = rt.collectNow();
    EXPECT_EQ(outcome.objectsMarked, 51u);
    // Clear half the slots; they must be reclaimed.
    for (std::size_t i = 0; i < 50; i += 2)
        rt.writeRef(arr.get(), i, nullptr);
    outcome = rt.collectNow();
    EXPECT_EQ(outcome.objectsMarked, 26u);
}

TEST(GcTest, RepeatedCollectionIsIdempotent)
{
    Runtime rt(baseConfig());
    const class_id_t cls = rt.defineClass("Stable", 1, 32);
    HandleScope scope(rt.roots());
    Handle root = scope.handle(rt.allocate(cls));
    {
        Handle child = scope.handle(rt.allocate(cls));
        rt.writeRef(root.get(), 0, child.get());
    }
    const auto first = rt.collectNow();
    for (int i = 0; i < 5; ++i) {
        const auto again = rt.collectNow();
        EXPECT_EQ(again.objectsMarked, first.objectsMarked);
        EXPECT_EQ(again.liveBytes, first.liveBytes);
    }
}

TEST(GcTest, DataSurvivesCollection)
{
    Runtime rt(baseConfig());
    const class_id_t bytes_cls = rt.defineByteArrayClass("bytes");
    HandleScope scope(rt.roots());
    Handle arr = scope.handle(rt.allocateByteArray(bytes_cls, 1000));
    for (int i = 0; i < 1000; ++i)
        arr.get()->bytePtr()[i] = static_cast<unsigned char>(i * 31);
    rt.collectNow();
    rt.collectNow();
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(arr.get()->bytePtr()[i], static_cast<unsigned char>(i * 31));
}

TEST(GcTest, CollectorMarksEveryTreeNode)
{
    Runtime rt(baseConfig());
    const class_id_t cls = rt.defineClass("TreeNode", 2, 8);
    HandleScope scope(rt.roots());
    // Build a complete binary tree of 511 nodes (depth 8) iteratively.
    std::vector<Handle> level{scope.handle(rt.allocate(cls))};
    std::uint64_t total = 1;
    for (int d = 0; d < 8; ++d) {
        std::vector<Handle> next;
        for (Handle &h : level) {
            Handle l = scope.handle(rt.allocate(cls));
            Handle r = scope.handle(rt.allocate(cls));
            rt.writeRef(h.get(), 0, l.get());
            rt.writeRef(h.get(), 1, r.get());
            next.push_back(l);
            next.push_back(r);
            total += 2;
        }
        level = std::move(next);
    }
    ASSERT_EQ(total, 511u);
    const auto outcome = rt.collectNow();
    // Handles alias every node, so marked count == node count.
    EXPECT_EQ(outcome.objectsMarked, total);
}

// --- handle stacks and global roots -------------------------------------------

/** The calling thread's handle slots, bottom to top. */
std::vector<ref_t *>
handleSlots(Runtime &rt)
{
    std::vector<ref_t *> slots;
    rt.threads().current()->handles.forEachSlot(
        [&](ref_t *slot) { slots.push_back(slot); });
    return slots;
}

TEST(HandleStackTest, HandlesSpanningBlocksStayRootedAtStableAddresses)
{
    Runtime rt(baseConfig());
    const class_id_t cls = rt.defineClass("Leaf", 0, 8);
    const std::size_t n = 3 * HandleStack::kBlockSlots + 5;
    HandleScope scope(rt.roots());
    std::vector<Handle> handles;
    std::vector<Object *> objects;
    for (std::size_t i = 0; i < n; ++i) {
        handles.push_back(scope.handle(rt.allocate(cls)));
        objects.push_back(handles.back().get());
    }
    const std::vector<ref_t *> before = handleSlots(rt);
    ASSERT_EQ(before.size(), n);
    rt.releaseAllocationRoot();
    const auto outcome = rt.collectNow();
    EXPECT_EQ(outcome.objectsMarked, n);
    EXPECT_EQ(handleSlots(rt), before);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(handles[i].get(), objects[i]) << "handle " << i;
}

TEST(HandleStackTest, InnerScopeReleasesItsSlotsForReuse)
{
    Runtime rt(baseConfig());
    const class_id_t cls = rt.defineClass("Leaf", 0, 8);
    HandleScope outer(rt.roots());
    Handle kept = outer.handle(rt.allocate(cls));
    Object *const kept_obj = kept.get();
    ref_t *inner_slot = nullptr;
    {
        HandleScope inner(rt.roots());
        inner.handle(rt.allocate(cls));
        const std::vector<ref_t *> slots = handleSlots(rt);
        ASSERT_EQ(slots.size(), 2u);
        inner_slot = slots.back();
    }
    EXPECT_EQ(handleSlots(rt).size(), 1u);
    rt.releaseAllocationRoot();
    const auto outcome = rt.collectNow();
    EXPECT_EQ(outcome.objectsMarked, 1u) << "the inner scope's object must die";
    EXPECT_EQ(kept.get(), kept_obj);
    {
        HandleScope again(rt.roots());
        again.handle(kept_obj);
        const std::vector<ref_t *> slots = handleSlots(rt);
        ASSERT_EQ(slots.size(), 2u);
        EXPECT_EQ(slots.back(), inner_slot);
    }
}

TEST(HandleStackTest, GlobalRootsDestroyedOutOfOrderLeaveTheRestRooted)
{
    Runtime rt(baseConfig());
    const class_id_t cls = rt.defineClass("Static", 0, 8);
    std::vector<std::unique_ptr<GlobalRoot>> roots;
    for (int i = 0; i < 5; ++i)
        roots.push_back(std::make_unique<GlobalRoot>(rt.roots(), rt.allocate(cls)));
    rt.releaseAllocationRoot();
    roots[1].reset(); // middle
    roots[0].reset(); // first
    roots[4].reset(); // last
    EXPECT_EQ(rt.collectNow().objectsMarked, 2u);
    roots.push_back(std::make_unique<GlobalRoot>(rt.roots(), rt.allocate(cls)));
    rt.releaseAllocationRoot();
    roots[3].reset();
    EXPECT_EQ(rt.collectNow().objectsMarked, 2u);
    EXPECT_NE(roots[2]->get(), nullptr);
    EXPECT_NE(roots[5]->get(), nullptr);
}

/** Opens two nested scopes, each with a handle, and throws from inside. */
[[noreturn]] void
throwThroughScopes(Runtime &rt, class_id_t cls)
{
    HandleScope a(rt.roots());
    a.handle(rt.allocate(cls));
    HandleScope b(rt.roots());
    b.handle(rt.allocate(cls));
    throw InternalError("thrown through two scopes", nullptr);
}

TEST(HandleStackTest, ExceptionUnwindsTheTopToTheCatchingScope)
{
    Runtime rt(baseConfig());
    const class_id_t cls = rt.defineClass("Leaf", 0, 8);
    HandleScope scope(rt.roots());
    Handle kept = scope.handle(rt.allocate(cls));
    const HandleStack::Mark before = rt.threads().current()->handles.mark;
    EXPECT_THROW(throwThroughScopes(rt, cls), InternalError);
    const HandleStack::Mark after = rt.threads().current()->handles.mark;
    EXPECT_EQ(after.top, before.top);
    EXPECT_EQ(after.scope, &scope);
    EXPECT_EQ(handleSlots(rt).size(), 1u);
    scope.handle(kept.get()); // still the innermost scope
    rt.releaseAllocationRoot();
    EXPECT_EQ(rt.collectNow().objectsMarked, 1u);
}

TEST(HandleStackTest, HandleOnAnOuterScopePanics)
{
    EXPECT_DEATH(
        {
            Runtime rt(baseConfig());
            HandleScope outer(rt.roots());
            HandleScope inner(rt.roots());
            outer.handle();
        },
        "innermost");
}

TEST(GcTest, MoreThanOneCollectorThreadIsRefused)
{
    RuntimeConfig cfg = baseConfig();
    cfg.gcThreads = 2;
    EXPECT_EXIT({ Runtime rt(cfg); }, ::testing::ExitedWithCode(1),
                "the collector is serial");
}

} // namespace
} // namespace lp

/**
 * @file
 * Tests for GC internals: the TracePolicy seam (hooks fire exactly
 * when the policy asks) and the stale closure leak pruning runs in its
 * SELECT state.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/leak_pruning.h"
#include "gc/plugin.h"
#include "vm/handles.h"
#include "vm/runtime.h"

namespace lp {
namespace {

// --- TracePolicy seam ----------------------------------------------------------

/** Counts every hook invocation; policy configurable per collection. */
class CountingPlugin : public CollectionPlugin
{
  public:
    TracePolicy policy;
    std::atomic<std::uint64_t> classified{0};
    std::atomic<std::uint64_t> marked{0};
    std::atomic<std::uint64_t> invalid{0};

    TracePolicy tracePolicy() const override { return policy; }

    EdgeAction
    classifyEdge(Object *, const ClassInfo &, ref_t *, Object *) override
    {
        classified.fetch_add(1, std::memory_order_relaxed);
        return EdgeAction::Trace;
    }

    void objectMarked(Object *) override
    {
        marked.fetch_add(1, std::memory_order_relaxed);
    }

    void invalidRefSeen(ref_t) override
    {
        invalid.fetch_add(1, std::memory_order_relaxed);
    }
};

class TracePolicyTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        RuntimeConfig cfg;
        cfg.heapBytes = 8u << 20;
        cfg.enableLeakPruning = false; // we install our own plugin
        cfg.barrierMode = BarrierMode::None;
        cfg.gcTriggerFraction = 0;
        rt = std::make_unique<Runtime>(cfg);
        cls = rt->defineClass("tp.Node", 1, 0);
        scope = std::make_unique<HandleScope>(rt->roots());
        // A 10-node chain: 10 objects, 9 non-null edges.
        Handle head = scope->handle(rt->allocate(cls));
        Handle cur = scope->handle(head.get());
        for (int i = 0; i < 9; ++i) {
            Handle next = scope->handle(rt->allocate(cls));
            rt->writeRef(cur.get(), 0, next.get());
            cur.set(next.get());
        }
    }

    std::unique_ptr<Runtime> rt;
    std::unique_ptr<HandleScope> scope;
    class_id_t cls = kInvalidClassId;
    CountingPlugin plugin;
};

TEST_F(TracePolicyTest, NoHooksWithDefaultPolicy)
{
    rt->installPluginForTesting(&plugin);
    rt->collectNow();
    EXPECT_EQ(plugin.classified.load(), 0u);
    EXPECT_EQ(plugin.marked.load(), 0u);
    // No tagging either.
    bool any_tagged = false;
    rt->heap().forEachObject([&](Object *obj) {
        const ClassInfo &info = rt->classes().info(obj->classId());
        obj->forEachRefSlot(info, [&](ref_t *slot) {
            any_tagged |= refHasStaleCheck(*slot);
        });
    });
    EXPECT_FALSE(any_tagged);
}

TEST_F(TracePolicyTest, ClassifyFiresPerEdgeWhenRequested)
{
    plugin.policy.classifyEdges = true;
    rt->installPluginForTesting(&plugin);
    rt->collectNow();
    EXPECT_EQ(plugin.classified.load(), 9u) << "9 chain edges";
}

TEST_F(TracePolicyTest, NotifyMarkedFiresPerObjectWhenRequested)
{
    plugin.policy.notifyMarked = true;
    rt->installPluginForTesting(&plugin);
    rt->collectNow();
    EXPECT_EQ(plugin.marked.load(), 10u) << "10 chain nodes";
}

TEST_F(TracePolicyTest, TaggingFollowsPolicy)
{
    plugin.policy.tagReferences = true;
    rt->installPluginForTesting(&plugin);
    rt->collectNow();
    int tagged = 0;
    rt->heap().forEachObject([&](Object *obj) {
        const ClassInfo &info = rt->classes().info(obj->classId());
        obj->forEachRefSlot(info, [&](ref_t *slot) {
            if (refHasStaleCheck(*slot))
                ++tagged;
        });
    });
    EXPECT_EQ(tagged, 9);
}

TEST_F(TracePolicyTest, StalenessClockFollowsPolicy)
{
    plugin.policy.trackStaleness = true;
    plugin.policy.epoch = 1;
    rt->installPluginForTesting(&plugin);
    rt->collectNow();
    rt->heap().forEachObject(
        [&](Object *obj) { EXPECT_EQ(obj->staleCounter(), 1u); });

    // And with the policy off, counters stay put.
    plugin.policy.trackStaleness = false;
    rt->collectNow();
    rt->heap().forEachObject(
        [&](Object *obj) { EXPECT_EQ(obj->staleCounter(), 1u); });
}

// --- The stale closure ----------------------------------------------------------

bool
slotTagged(Runtime &rt, Object *obj, std::size_t i)
{
    return refHasStaleCheck(*obj->refSlotAddr(rt.classes().info(obj->classId()), i));
}

TEST(StaleClosureTest, SharedSubgraphIsChargedToTheFirstCandidateOnly)
{
    RuntimeConfig cfg;
    cfg.heapBytes = 8u << 20;
    cfg.gcTriggerFraction = 0;
    Runtime rt(cfg);
    const class_id_t holder1 = rt.defineClass("sc.Holder1", 2, 0);
    const class_id_t holder2 = rt.defineClass("sc.Holder2", 1, 0);
    const class_id_t stale = rt.defineClass("sc.Stale", 2, 0);
    const class_id_t node = rt.defineClass("sc.Node", 1, 0);

    // Rooted h1 -> {t, h2} and h2 -> t: two edges of different types
    // to one stale target t (counter 2, a SELECT candidate), in that
    // trace order. t's subgraph is the diamond t -> {u, v}, u -> v.
    GlobalRoot root(rt.roots());
    Object *h1, *h2, *t, *u, *v;
    {
        // h1 last: a mutator's latest allocation is itself a root.
        HandleScope scope(rt.roots());
        v = scope.handle(rt.allocate(node)).get();
        u = scope.handle(rt.allocate(node)).get();
        t = scope.handle(rt.allocate(stale)).get();
        h2 = scope.handle(rt.allocate(holder2)).get();
        h1 = scope.handle(rt.allocate(holder1)).get();
        rt.writeRef(h1, 0, t);
        rt.writeRef(h1, 1, h2);
        rt.writeRef(h2, 0, t);
        rt.writeRef(t, 0, u);
        rt.writeRef(t, 1, v);
        rt.writeRef(u, 0, v);
        root.set(h1);
    }
    t->setStaleCounter(2);
    const std::uint64_t subgraph_bytes =
        t->sizeBytes() + u->sizeBytes() + v->sizeBytes();

    LeakPruning &pruning = *rt.pruning();
    pruning.forceState(PruningState::Select);
    const CollectionOutcome outcome = rt.collectNow(); // epoch 1

    // Both edges were deferred; the first candidate's closure claimed
    // the whole subgraph, so the second found t marked and charged 0.
    EXPECT_EQ(pruning.stats().candidatesQueued, 2u);
    EXPECT_EQ(pruning.stats().staleBytesSized, subgraph_bytes);
    ASSERT_TRUE(pruning.selectedEdge().has_value());
    EXPECT_EQ(pruning.selectedEdge()->type, (EdgeType{holder1, stale}));
    EXPECT_EQ(pruning.selectedEdge()->bytesUsed, subgraph_bytes);

    // Every reference the closures traced or deferred carries the tag.
    EXPECT_TRUE(slotTagged(rt, h1, 0) && slotTagged(rt, h1, 1));
    EXPECT_TRUE(slotTagged(rt, h2, 0));
    EXPECT_TRUE(slotTagged(rt, t, 0) && slotTagged(rt, t, 1));
    EXPECT_TRUE(slotTagged(rt, u, 0));

    // Collection 1 ticks counters holding 0 (2^0 divides 1), once per
    // object: v is reached twice inside the subgraph but reads 1. t's
    // counter of 2 does not tick (2^2 does not divide 1).
    for (Object *obj : {h1, h2, u, v})
        EXPECT_EQ(obj->staleCounter(), 1u);
    EXPECT_EQ(t->staleCounter(), 2u);

    // The in-use closure marked h1 and h2, the stale closure t, u and
    // v; the collection's totals include both.
    EXPECT_EQ(outcome.objectsMarked, 5u);
    EXPECT_EQ(rt.gcStats().objectsMarkedTotal, 5u);
}

} // namespace
} // namespace lp

/**
 * @file
 * Tests for GC internals: the TracePolicy seam (hooks fire exactly
 * when the policy asks).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

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

} // namespace
} // namespace lp

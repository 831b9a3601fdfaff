/**
 * @file
 * Tests for GC internals: the TracePolicy seam (the tracer keeps each
 * record exactly when the policy asks, and an out-of-memory retry
 * ticks the staleness clock only when the policy ages through
 * retries), the stale closure leak pruning runs in its SELECT state,
 * an oracle that checks both closures against a plain recursive walk
 * of a seeded random graph, a check that leak pruning decides the
 * same on that graph whatever order the roots are traced in, and a
 * check of the edge rule leak pruning publishes against the paper's
 * condition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/leak_pruning.h"
#include "gc/plugin.h"
#include "gc/tracer.h"
#include "object/object.h"
#include "telemetry/telemetry.h"
#include "vm/handles.h"
#include "vm/runtime.h"

namespace lp {
namespace {

// --- TracePolicy seam ----------------------------------------------------------

/** Publishes a configurable policy and keeps the tracer's records. */
class CountingPlugin : public CollectionPlugin
{
  public:
    TracePolicy policy;
    std::size_t matched = 0;
    unsigned maxStale = 0;

    TracePolicy beginCollection(std::uint64_t) override { return policy; }

    void
    afterInUseClosure(Tracer &tracer) override
    {
        matched = tracer.matches().size();
        maxStale = tracer.maxStaleMarked();
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

TEST_F(TracePolicyTest, NoRecordsWithDefaultPolicy)
{
    rt->heap().forEachObject([&](Object *obj) { obj->setStaleCounter(4); });
    rt->installPluginForTesting(&plugin);
    rt->collectNow();
    EXPECT_EQ(plugin.matched, 0u);
    EXPECT_EQ(plugin.maxStale, 0u);
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

TEST_F(TracePolicyTest, RuleRecordsEveryEdgeItMatches)
{
    plugin.policy.rule = EdgeRule{}; // every unpinned target
    rt->installPluginForTesting(&plugin);
    rt->collectNow();
    EXPECT_EQ(plugin.matched, 9u) << "9 chain edges";
}

TEST_F(TracePolicyTest, MaxStaleRecordedWhenRequested)
{
    // Collection 1 ticks the counters holding 0 to 1; the one at 4
    // stays (2^4 does not divide 1).
    Object *idle = nullptr;
    rt->heap().forEachObject([&](Object *obj) { idle = obj; });
    idle->setStaleCounter(4);
    plugin.policy.observe = true;
    plugin.policy.recordMaxStale = true;
    rt->installPluginForTesting(&plugin);
    rt->collectNow();
    EXPECT_EQ(plugin.maxStale, 4u);

    // Collection 2 ticks counters below 2: the others from 1 to 2,
    // the idle one from 0 to 1.
    idle->setStaleCounter(0);
    rt->collectNow();
    EXPECT_EQ(plugin.maxStale, 2u) << "cleared at the collection's start";
}

TEST_F(TracePolicyTest, TaggingFollowsPolicy)
{
    plugin.policy.observe = true;
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
    plugin.policy.observe = true;
    rt->installPluginForTesting(&plugin);
    rt->collectNow(); // collection 1
    rt->heap().forEachObject(
        [&](Object *obj) { EXPECT_EQ(obj->staleCounter(), 1u); });

    // And with the policy off, counters stay put.
    plugin.policy.observe = false;
    rt->collectNow();
    rt->heap().forEachObject(
        [&](Object *obj) { EXPECT_EQ(obj->staleCounter(), 1u); });
}

/**
 * Observes, keeps answering that another collection can help, and
 * records a watched object's stale counter after every collection an
 * allocation ran.
 */
class ExhaustedPlugin : public CountingPlugin
{
  public:
    Object *watched = nullptr;
    std::vector<unsigned> counters;

    bool
    memoryExhausted(std::size_t, std::uint64_t, unsigned) override
    {
        counters.push_back(watched->staleCounter());
        return true;
    }
};

/**
 * Ask a runtime for more than its whole heap, so the allocation
 * retries until the runtime gives up, under a plugin that observes and
 * whose policy ages through retries iff @p ages. The run starts with
 * one clock quantum due and allocates nothing after the first retry,
 * so only that one is due a tick. Returns the stale counter of a
 * rooted object after each retry. The object has no edges: the heap
 * verifier's automatic pass rejects tagged references in a runtime
 * without a tolerance scheme of its own.
 */
std::vector<unsigned>
counterAcrossRetries(bool ages)
{
    RuntimeConfig cfg;
    cfg.heapBytes = 8u << 20;
    cfg.enableLeakPruning = false; // we install our own plugin
    cfg.barrierMode = BarrierMode::None;
    cfg.gcTriggerFraction = 0;
    Runtime rt(cfg);
    HandleScope scope(rt.roots());
    ExhaustedPlugin plugin;
    plugin.policy.observe = true;
    plugin.policy.ageThroughRetries = ages;
    plugin.watched =
        scope.handle(rt.allocate(rt.defineClass("rc.Node", 1, 0))).get();
    rt.installPluginForTesting(&plugin);
    const class_id_t bytes = rt.defineByteArrayClass("rc.Bytes");
    EXPECT_THROW(rt.allocateByteArray(bytes, 2 * rt.heap().capacity()),
                 OutOfMemoryError);
    return plugin.counters;
}

TEST(RetryClockTest, RetriesAgeTheClockWhenThePolicySaysSo)
{
    const std::vector<unsigned> counters = counterAcrossRetries(true);
    ASSERT_EQ(counters.size(), 64u) << "the runtime's whole retry budget";
    EXPECT_EQ(counters.front(), 1u);
    // Collections 1..64 all tick: counter k rises at collections that
    // 2^k divides, up to the 3-bit cap 7 at collection 64.
    EXPECT_EQ(counters[1], 2u);
    EXPECT_EQ(counters[3], 3u);
    EXPECT_EQ(counters.back(), 7u);
}

TEST(RetryClockTest, RetriesWithoutAQuantumDoNotAgeTheClock)
{
    const std::vector<unsigned> counters = counterAcrossRetries(false);
    ASSERT_EQ(counters.size(), 64u) << "the runtime's whole retry budget";
    // Only the first retry had a quantum on the clock.
    for (const unsigned counter : counters)
        EXPECT_EQ(counter, 1u);
}

// --- The stale closure ----------------------------------------------------------

bool
slotTagged(Runtime &rt, Object *obj, std::size_t i)
{
    return refHasStaleCheck(*obj->refSlotAddr(rt.classes().info(obj->classId()), i));
}

/**
 * Holders h1 (class Holder1) and h2 (class Holder2) both point at one
 * stale target t (counter 2, a SELECT candidate), and the rooted holder
 * points at the other: h1 -> {t, h2} when @p holder2_first is false,
 * else h2 -> {t, h1}, so the trace defers the rooted holder's edge
 * first. t's subgraph is the diamond t -> {u, v}, u -> v. Whichever
 * edge the trace defers first, the stale closure runs the candidates in
 * edge-type order, so (Holder1, Stale), the smaller pair, is charged
 * the whole subgraph and the other candidate finds t marked.
 */
void
expectSharedSubgraphChargedInEdgeTypeOrder(bool holder2_first)
{
    RuntimeConfig cfg;
    cfg.heapBytes = 8u << 20;
    cfg.gcTriggerFraction = 0;
    Runtime rt(cfg);
    const class_id_t holder1 = rt.defineClass("sc.Holder1", 2, 0);
    const class_id_t holder2 = rt.defineClass("sc.Holder2", 2, 0);
    const class_id_t stale = rt.defineClass("sc.Stale", 2, 0);
    const class_id_t node = rt.defineClass("sc.Node", 1, 0);

    GlobalRoot root(rt.roots());
    Object *h1, *h2, *t, *u, *v;
    {
        // The rooted holder last: a mutator's latest allocation is
        // itself a root.
        HandleScope scope(rt.roots());
        v = scope.handle(rt.allocate(node)).get();
        u = scope.handle(rt.allocate(node)).get();
        t = scope.handle(rt.allocate(stale)).get();
        Object *inner = scope.handle(rt.allocate(holder2_first ? holder1
                                                               : holder2))
                            .get();
        Object *outer = scope.handle(rt.allocate(holder2_first ? holder2
                                                               : holder1))
                            .get();
        h1 = holder2_first ? inner : outer;
        h2 = holder2_first ? outer : inner;
        rt.writeRef(outer, 0, t);
        rt.writeRef(outer, 1, inner);
        rt.writeRef(inner, 0, t);
        rt.writeRef(t, 0, u);
        rt.writeRef(t, 1, v);
        rt.writeRef(u, 0, v);
        root.set(outer);
    }
    t->setStaleCounter(2);
    const std::uint64_t subgraph_bytes =
        t->sizeBytes() + u->sizeBytes() + v->sizeBytes();

    LeakPruning &pruning = *rt.pruning();
    pruning.forceState(PruningState::Select);
    const CollectionOutcome outcome = rt.collectNow(); // epoch 1

    // Both edges were deferred; the (Holder1, Stale) candidate's
    // closure claimed the whole subgraph, so the other found t marked
    // and charged 0.
    EXPECT_EQ(pruning.stats().candidatesQueued, 2u);
    EXPECT_EQ(pruning.stats().staleBytesSized, subgraph_bytes);
    ASSERT_TRUE(pruning.selectedEdge().has_value());
    EXPECT_EQ(pruning.selectedEdge()->type, (EdgeType{holder1, stale}));
    EXPECT_EQ(pruning.selectedEdge()->bytesUsed, subgraph_bytes);

    // Every reference the closures traced or deferred carries the tag.
    EXPECT_TRUE(slotTagged(rt, h1, 0) && slotTagged(rt, h2, 0));
    EXPECT_TRUE(slotTagged(rt, holder2_first ? h2 : h1, 1));
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

TEST(StaleClosureTest, SharedSubgraphIsChargedToTheFirstCandidateOnly)
{
    expectSharedSubgraphChargedInEdgeTypeOrder(/*holder2_first=*/false);
}

// The same graph with the holders swapped: the trace now defers the
// (Holder2, Stale) edge first, and (Holder1, Stale) still wins.
TEST(StaleClosureTest, SharedSubgraphChargeIgnoresTraceOrder)
{
    expectSharedSubgraphChargedInEdgeTypeOrder(/*holder2_first=*/true);
}

// --- Closure-equivalence oracle -------------------------------------------------
//
// A seeded random graph with cycles, shared subgraphs, null and
// poisoned slots, byte arrays, a 300-slot RefArray and a large (LOS)
// object. Each case predicts what a collection must
// leave behind with a plain recursive walk over the same root set, and
// compares: the side marks before the flip, the in-use set after it,
// every stale counter, every slot word (dead objects' included: the
// flip reclaims without writing them), the marked-object count and the
// live bytes of the epoch flip.

/** OBSERVE's policy (plus the disk GC's stub-word scan); with a
 *  Defer rule, the edges it matches are deferred and the stale
 *  closure sizes them afterwards, as leak pruning's SELECT does. */
class OraclePlugin : public CollectionPlugin
{
  public:
    TracePolicy policy;
    std::vector<Object *> candidates;     //!< deferred targets, in order
    std::vector<std::uint64_t> bytes;     //!< traceSubgraph's result each
    std::multiset<ref_t> invalid;
    std::size_t retained = 0; //!< gray capacity the tracer kept after them
    //! Objects whose side marks are read once the closures are done,
    //! before the flip clears them, and the ones found marked.
    const std::vector<Object *> *watched = nullptr;
    const Heap *heap = nullptr;
    std::unordered_set<Object *> marked;

    TracePolicy beginCollection(std::uint64_t) override { return policy; }

    void
    afterInUseClosure(Tracer &tracer) override
    {
        TracePolicy stale = policy;
        stale.rule.reset();
        for (const EdgeMatch &m : tracer.matches()) {
            candidates.push_back(m.target);
            bytes.push_back(tracer.traceSubgraph(m.target, stale));
        }
        invalid.insert(tracer.stubs().begin(), tracer.stubs().end());
        retained = tracer.grayCapacity();
        if (watched) {
            for (Object *obj : *watched) {
                if (heap->isMarked(obj))
                    marked.insert(obj);
            }
        }
    }
};

/** The graph, the runtime it lives in, and its pre-collection state. */
struct OracleGraph {
    //! The runtime's collection 12 is the one checked: 2^2 divides 12,
    //! so it ticks counters below 3.
    static constexpr unsigned kTickBelow = 3;

    std::unique_ptr<Runtime> rt;
    std::vector<Object *> objects;
    Object *large = nullptr; //!< freed outright by the flip if it dies
    std::vector<std::unique_ptr<GlobalRoot>> roots;
    //! Per object: its slot words and its stale counter before the GC.
    std::unordered_map<Object *, std::vector<ref_t>> slots;
    std::unordered_map<Object *, unsigned> counters;

    OracleGraph(unsigned seed, std::size_t heap_bytes)
    {
        RuntimeConfig cfg;
        cfg.heapBytes = heap_bytes;
        cfg.enableLeakPruning = false;
        cfg.barrierMode = BarrierMode::None;
        cfg.gcTriggerFraction = 0;
        cfg.verifier.enabled = false;
        rt = std::make_unique<Runtime>(cfg);
        for (int i = 0; i < 11; ++i)
            rt->collectNow(); // collections 1 to 11, of an empty heap
        std::mt19937 rng(seed);
        const auto below = [&](std::size_t n) {
            return static_cast<std::size_t>(rng() % n);
        };
        // Four node classes of one layout, so edges come in several
        // types.
        const class_id_t nodes[] = {
            rt->defineClass("eq.NodeA", 3, 8), rt->defineClass("eq.NodeB", 3, 8),
            rt->defineClass("eq.NodeC", 3, 8), rt->defineClass("eq.NodeD", 3, 8)};
        const class_id_t bytes = rt->defineByteArrayClass("eq.Bytes");
        const class_id_t array = rt->defineRefArrayClass("eq.Node[]");

        HandleScope scope(rt->roots());
        constexpr std::size_t kNodes = 400, kByteArrays = 40;
        Handle keep = scope.handle(rt->allocateRefArray(array, 1024));
        const auto hold = [&](Object *obj) {
            rt->writeRef(keep.get(), objects.size(), obj);
            objects.push_back(obj);
        };
        for (std::size_t i = 0; i < kNodes; ++i)
            hold(rt->allocate(nodes[i % 4]));
        for (std::size_t i = 0; i < kByteArrays; ++i)
            hold(rt->allocateByteArray(bytes, 1 + below(400)));
        large = rt->allocateByteArray(bytes, 3 * Heap::kLargeThreshold);
        hold(large);
        Object *wide = rt->allocateRefArray(array, 300);
        hold(wide);

        // Random edges: nulls, poisoned words and targets anywhere
        // (cycles, shared subgraphs); some already carry the tag.
        const auto wire = [&](Object *src, std::size_t slot) {
            const std::size_t roll = below(100);
            if (roll < 15)
                return;
            Object *tgt = objects[roll < 80 ? below(kNodes)
                                            : below(objects.size())];
            rt->writeRef(src, slot, tgt);
            ref_t *addr =
                src->refSlotAddr(rt->classes().info(src->classId()), slot);
            if (roll < 20)
                *addr = refPoisoned(*addr);
            else if (roll < 40)
                *addr = refWithStaleCheck(*addr);
        };
        for (std::size_t i = 0; i < kNodes; ++i)
            for (std::size_t s = 0; s < 3; ++s)
                wire(objects[i], s);
        for (std::size_t s = 0; s < 300; ++s)
            wire(wide, s);
        rt->writeRef(objects[below(kNodes)], 0, wide);
        rt->writeRef(objects[below(kNodes)], 1, large);

        for (int i = 0; i < 3; ++i)
            roots.push_back(std::make_unique<GlobalRoot>(
                rt->roots(), objects[below(kNodes)]));
        keep.set(nullptr); // the rest is garbage unless reachable

        for (Object *obj : objects) {
            obj->setStaleCounter(static_cast<unsigned>(below(8)));
            counters[obj] = obj->staleCounter();
            std::vector<ref_t> &words = slots[obj];
            obj->forEachRefSlot(rt->classes().info(obj->classId()),
                                [&](ref_t *slot) { words.push_back(*slot); });
        }
    }

    /** The root set the collector will trace, from the runtime itself. */
    std::vector<Object *>
    rootTargets()
    {
        std::vector<Object *> out;
        rt->roots().forEachRoot([&](ref_t *slot) {
            if (!refIsNull(*slot) && !refIsPoisoned(*slot))
                out.push_back(refTarget(*slot));
        });
        return out;
    }

    /**
     * The reference walk: add to @p marked everything reachable from
     * @p from through objects not yet in it, skipping edges into
     * @p defer; @return the sizes of the objects it added.
     */
    std::uint64_t
    walk(Object *from, std::unordered_set<Object *> &marked,
         const std::unordered_set<Object *> &defer = {})
    {
        if (!marked.insert(from).second)
            return 0;
        std::uint64_t bytes = from->sizeBytes();
        for (ref_t r : slots.at(from)) {
            if (refIsNull(r) || refIsPoisoned(r) || defer.count(refTarget(r)))
                continue;
            bytes += walk(refTarget(r), marked, defer);
        }
        return bytes;
    }

    /** Block bytes the heap's mark-time accounting charges @p obj. */
    std::uint64_t
    chargedBytes(Object *obj)
    {
        const std::size_t size = obj->sizeBytes();
        if (size > Heap::kLargeThreshold)
            return (size + 4095) / 4096 * 4096;
        return rt->heap().sizeClassBytes(rt->heap().sizeClassFor(size));
    }

    /**
     * Stamp the counters so that exactly the targets in @p defer sit at
     * kMaxStaleCounter, which deferStamped()'s rule matches.
     */
    void
    stampDeferred(const std::unordered_set<Object *> &defer)
    {
        for (Object *obj : objects) {
            const unsigned k = defer.count(obj)
                                   ? kMaxStaleCounter
                                   : std::min(counters.at(obj), kMaxStaleCounter - 1);
            obj->setStaleCounter(k);
            counters[obj] = k;
        }
    }

    /** Watch every graph object's side mark through @p plugin. */
    void
    watch(OraclePlugin &plugin)
    {
        plugin.watched = &objects;
        plugin.heap = &rt->heap();
    }

    /**
     * Compare the heap after the collection with @p marked: the side
     * marks @p plugin saw before the flip, the in-use set after it,
     * counters ticked once per marked object, traced slots tagged and
     * everything else untouched, and the poisoned words seen.
     */
    void
    expectMatches(const std::unordered_set<Object *> &marked,
                  const CollectionOutcome &outcome,
                  const OraclePlugin &plugin)
    {
        EXPECT_EQ(plugin.marked, marked);
        std::unordered_set<Object *> in_use;
        rt->heap().forEachObject([&](Object *obj) { in_use.insert(obj); });
        EXPECT_EQ(in_use, marked) << "in-use after the flip = marked set";
        std::uint64_t live = 0;
        std::multiset<ref_t> poisoned;
        for (Object *obj : objects) {
            const bool in = marked.count(obj) != 0;
            if (!in && obj == large)
                continue; // its storage went back to the host
            const unsigned k = counters.at(obj);
            EXPECT_EQ(obj->staleCounter(),
                      in && k < kTickBelow ? k + 1 : k);
            std::size_t i = 0;
            obj->forEachRefSlot(
                rt->classes().info(obj->classId()), [&](ref_t *slot) {
                    const ref_t before = slots.at(obj)[i++];
                    const bool traced = in && !refIsNull(before) &&
                                        !refIsPoisoned(before);
                    EXPECT_EQ(*slot,
                              traced ? refWithStaleCheck(before) : before);
                    if (in && refIsPoisoned(before))
                        poisoned.insert(before);
                });
            if (in)
                live += chargedBytes(obj);
        }
        EXPECT_EQ(outcome.objectsMarked, marked.size());
        EXPECT_EQ(outcome.liveBytes, live);
        EXPECT_EQ(plugin.invalid, poisoned);
    }
};

TracePolicy
observePolicy()
{
    TracePolicy policy;
    policy.observe = true;
    policy.recordStubs = true;
    return policy;
}

/** OBSERVE's policy, deferring the edges into targets at the top
 *  counter (OracleGraph::stampDeferred). */
TracePolicy
deferStamped()
{
    TracePolicy policy = observePolicy();
    policy.rule = EdgeRule{EdgeAction::Defer, kMaxStaleCounter};
    return policy;
}

TEST(ClosureOracleTest, InUseClosureMatchesARecursiveWalk)
{
    for (unsigned seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        OracleGraph g(seed, 4u << 20);
        OraclePlugin plugin;
        plugin.policy = observePolicy();
        std::unordered_set<Object *> marked;
        for (Object *root : g.rootTargets())
            g.walk(root, marked);
        ASSERT_LT(marked.size(), g.objects.size()) << "some garbage";

        g.watch(plugin);
        g.rt->installPluginForTesting(&plugin);
        const CollectionOutcome outcome = g.rt->collectNow();
        g.expectMatches(marked, outcome, plugin);
    }
}

TEST(ClosureOracleTest, EachStaleClosureClaimsWhatTheWalkDoes)
{
    for (unsigned seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        OracleGraph g(seed, 4u << 20);
        OraclePlugin plugin;
        plugin.policy = deferStamped();
        std::mt19937 rng(seed);
        const std::vector<Object *> root_targets = g.rootTargets();
        std::unordered_set<Object *> defer;
        while (defer.size() < 12) {
            Object *obj = g.objects[rng() % g.objects.size()];
            if (std::find(root_targets.begin(), root_targets.end(), obj) ==
                root_targets.end())
                defer.insert(obj);
        }
        g.stampDeferred(defer);

        g.watch(plugin);
        g.rt->installPluginForTesting(&plugin);
        const CollectionOutcome outcome = g.rt->collectNow();

        // The in-use closure stops at deferred edges; then each
        // candidate, in the order its edges were deferred, claims what
        // is reachable from it and not yet marked.
        std::unordered_set<Object *> marked;
        for (Object *root : root_targets)
            g.walk(root, marked, defer);
        ASSERT_EQ(plugin.bytes.size(), plugin.candidates.size());
        std::size_t repeats = 0;
        for (std::size_t i = 0; i < plugin.candidates.size(); ++i) {
            const std::uint64_t want = g.walk(plugin.candidates[i], marked);
            EXPECT_EQ(plugin.bytes[i], want) << "candidate " << i;
            repeats += want == 0;
        }
        EXPECT_GT(repeats, 0u) << "candidates overlap";
        g.expectMatches(marked, outcome, plugin);
    }
}

// --- Trace-order invariance of pruning decisions --------------------------------
//
// The oracle graph under leak pruning, one SELECT then one PRUNE
// collection, driven through Tracer::traceFromRoots with the roots
// enumerated forward, reversed and in three seeded shuffles. Every
// order must make the same decisions. Stale counters are seeded so
// that many targets sit one tick below a threshold that a collection at
// epoch 64 ticks them across (the candidate margin 2 and the most-stale
// level 7), and the pair runs at epochs 64 and 65, then 63 and 64: a
// decision that read a counter after its target's visit would differ
// between orders.

/** The runtime's root slots, enumerated in an order the test picks. */
class OrderedRoots : public RootProvider
{
  public:
    std::vector<ref_t *> slots;

    void
    forEachRoot(FunctionRef<void(ref_t *)> fn) override
    {
        for (ref_t *slot : slots)
            fn(slot);
    }
};

/** Forwards every hook to leak pruning and reads its edge decisions
 *  from the tracer's records. */
class RecordingPlugin : public CollectionPlugin
{
  public:
    using SlotId = std::pair<std::size_t, std::ptrdiff_t>; //!< object, word

    RecordingPlugin(LeakPruning &inner,
                    const std::unordered_map<Object *, std::size_t> &index,
                    const std::map<ref_t *, SlotId> &slot_ids)
        : inner_(inner), index_(index), slot_ids_(slot_ids)
    {}

    std::vector<std::pair<SlotId, std::size_t>> deferred; //!< slot, target
    std::vector<SlotId> poisoned;
    //! Bytes the traced matches charge per edge type (IndividualRefs).
    std::map<std::pair<class_id_t, class_id_t>, std::uint64_t> charges;

    TracePolicy
    beginCollection(std::uint64_t epoch) override
    {
        policy_ = inner_.beginCollection(epoch);
        return policy_;
    }

    void
    afterInUseClosure(Tracer &tracer) override
    {
        for (const EdgeMatch &m : tracer.matches()) {
            const SlotId id = slot_ids_.at(m.slot);
            switch (policy_.rule->onMatch) {
              case EdgeAction::Defer:
                deferred.emplace_back(id, index_.at(m.target));
                break;
              case EdgeAction::Poison:
                poisoned.push_back(id);
                break;
              case EdgeAction::Trace:
                charges[{m.srcClass, m.target->classId()}] += m.target->sizeBytes();
                break;
            }
        }
        inner_.afterInUseClosure(tracer);
    }

    void endCollection(const CollectionOutcome &outcome) override { inner_.endCollection(outcome); }

  private:
    LeakPruning &inner_;
    TracePolicy policy_; //!< the running collection's
    const std::unordered_map<Object *, std::size_t> &index_;
    const std::map<ref_t *, SlotId> &slot_ids_;
};

/** Everything one root order decided, by object index. */
struct Decisions {
    std::vector<std::pair<RecordingPlugin::SlotId, std::size_t>> candidates;
    std::map<std::pair<class_id_t, class_id_t>, std::uint64_t> charges;
    //! Selected (src class, tgt class, maxStaleUse, bytes), if any.
    std::vector<std::tuple<class_id_t, class_id_t, unsigned, std::uint64_t>> selected;
    std::uint64_t candidatesQueued = 0;
    std::uint64_t staleBytesSized = 0;
    std::vector<RecordingPlugin::SlotId> poisoned;
    //! Surviving objects and their stale counters after PRUNE.
    std::vector<std::pair<std::size_t, unsigned>> survivors;
};

/** Field by field, so a failure names what differs. */
void
expectSameDecisions(const Decisions &got, const Decisions &want)
{
    EXPECT_TRUE(got.candidates == want.candidates)
        << "candidates: " << got.candidates.size() << " vs "
        << want.candidates.size();
    EXPECT_EQ(got.charges, want.charges);
    EXPECT_EQ(got.selected, want.selected);
    EXPECT_EQ(got.candidatesQueued, want.candidatesQueued);
    EXPECT_EQ(got.staleBytesSized, want.staleBytesSized);
    EXPECT_TRUE(got.poisoned == want.poisoned)
        << "poisoned slots: " << got.poisoned.size() << " vs "
        << want.poisoned.size();
    EXPECT_TRUE(got.survivors == want.survivors)
        << "survivors: " << got.survivors.size() << " vs "
        << want.survivors.size();
}

/**
 * One collection of a stand-alone leak-pruning engine over @p rt's heap,
 * driven through @p plugin (the engine or a wrapper of it), with the
 * engine forced into @p state.
 */
void
collectWith(Runtime &rt, LeakPruning &engine, CollectionPlugin &plugin,
            Tracer &tracer, RootProvider &roots, PruningState state,
            std::uint64_t epoch)
{
    engine.forceState(state);
    tracer.beginCollection(epoch, /*tick=*/true);
    tracer.traceFromRoots(roots, plugin.beginCollection(epoch));
    plugin.afterInUseClosure(tracer);
    const Heap::FlipResult flip = rt.heap().flipMarkEpoch();
    CollectionOutcome outcome;
    outcome.epoch = epoch;
    outcome.liveBytes = flip.liveBytes;
    outcome.committedBytes = flip.committedBytes;
    outcome.capacityBytes = rt.heap().capacity();
    outcome.refsPoisoned = tracer.stats().refsPoisoned;
    plugin.endCollection(outcome);
}

/** Root order @p order (0 forward, 1 reversed, else a seeded shuffle). */
Decisions
decideInRootOrder(unsigned seed, Predictor predictor, std::uint64_t select_epoch,
                  unsigned order)
{
    OracleGraph g(seed, 4u << 20);
    std::mt19937 rng(seed * 7919 + 1);
    for (int i = 0; i < 13; ++i)
        g.roots.push_back(std::make_unique<GlobalRoot>(
            g.rt->roots(), g.objects[rng() % 400]));
    // Reclaim the garbage and retire the allocation cache, so the
    // test's own flips below find no chunk on lease; this collection
    // has no plugin and ticks nothing.
    g.rt->collectNow();
    std::unordered_map<Object *, std::size_t> index;
    std::map<ref_t *, RecordingPlugin::SlotId> slot_ids;
    std::unordered_set<Object *> live;
    g.rt->heap().forEachObject([&](Object *obj) { live.insert(obj); });
    for (std::size_t i = 0; i < g.objects.size(); ++i) {
        Object *obj = g.objects[i];
        if (!live.count(obj))
            continue;
        index.emplace(obj, i);
        obj->forEachRefSlot(g.rt->classes().info(obj->classId()), [&](ref_t *slot) {
            slot_ids.emplace(slot, RecordingPlugin::SlotId{
                                       i, slot - reinterpret_cast<ref_t *>(obj)});
        });
        // One in three at 1 or 6, one tick below the candidate margin
        // (2) and the most-stale level (7); the rest anywhere.
        const unsigned roll = static_cast<unsigned>(rng() % 12);
        obj->setStaleCounter(roll < 2 ? 1 : roll < 4 ? 6 : roll % 8);
    }

    OrderedRoots roots;
    g.rt->roots().forEachRoot(
        [&](ref_t *slot) { roots.slots.push_back(slot); });
    if (order == 1) {
        std::reverse(roots.slots.begin(), roots.slots.end());
    } else if (order > 1) {
        std::mt19937 shuffle(seed * 31 + order);
        std::shuffle(roots.slots.begin(), roots.slots.end(), shuffle);
    }

    LeakPruningConfig cfg;
    cfg.predictor = predictor;
    Telemetry telemetry;
    LeakPruning pruning(g.rt->classes(), cfg, telemetry);
    // Uses that protect two edge types (maxStaleUse 3 and 2).
    pruning.forceState(PruningState::Observe);
    const class_id_t a = g.objects[0]->classId(), b = g.objects[1]->classId();
    pruning.onReferenceUsed(a, b, 3);
    pruning.onReferenceUsed(b, a, 2);
    RecordingPlugin plugin(pruning, index, slot_ids);
    Tracer tracer(g.rt->heap(), g.rt->classes());
    const auto collect = [&](PruningState state, std::uint64_t epoch) {
        collectWith(*g.rt, pruning, plugin, tracer, roots, state, epoch);
    };

    Decisions d;
    collect(PruningState::Select, select_epoch);
    d.candidates = plugin.deferred;
    std::sort(d.candidates.begin(), d.candidates.end());
    d.charges = plugin.charges;
    if (const auto &sel = pruning.selectedEdge())
        d.selected.emplace_back(sel->type.srcClass, sel->type.tgtClass,
                                sel->maxStaleUse, sel->bytesUsed);
    d.candidatesQueued = pruning.stats().candidatesQueued;
    d.staleBytesSized = pruning.stats().staleBytesSized;

    collect(PruningState::Prune, select_epoch + 1);
    d.poisoned = plugin.poisoned;
    std::sort(d.poisoned.begin(), d.poisoned.end());
    g.rt->heap().forEachObject([&](Object *obj) {
        d.survivors.emplace_back(index.at(obj), obj->staleCounter());
    });
    std::sort(d.survivors.begin(), d.survivors.end());
    return d;
}

TEST(ClosureOracleTest, PruningDecisionsIgnoreRootOrder)
{
    std::size_t candidates = 0, poisoned = 0;
    for (unsigned seed = 1; seed <= 2; ++seed) {
        // SELECT at 64 ticks counters below 7; PRUNE at 64 likewise.
        for (std::uint64_t select_epoch : {64u, 63u}) {
            for (Predictor predictor :
                 {Predictor::Default, Predictor::IndividualRefs,
                  Predictor::MostStale}) {
                SCOPED_TRACE(testing::Message()
                             << "seed " << seed << ", SELECT at "
                             << select_epoch << ", predictor "
                             << static_cast<int>(predictor));
                const Decisions forward =
                    decideInRootOrder(seed, predictor, select_epoch, 0);
                candidates += forward.candidates.size();
                poisoned += forward.poisoned.size();
                for (unsigned order = 1; order < 5; ++order) {
                    SCOPED_TRACE(testing::Message() << "root order " << order);
                    expectSameDecisions(
                        decideInRootOrder(seed, predictor, select_epoch, order),
                        forward);
                }
            }
        }
    }
    EXPECT_GT(candidates, 0u);
    EXPECT_GT(poisoned, 0u);
}

// Every closure claims at discovery, so an edge to an object that is
// already marked pushes nothing: a wide array of 32K edges into 256 live
// objects leaves the gray stack bounded by the objects marked, a few
// hundred entries, not by the edges (32K entries, which the tracer
// would trim back to kRetainedGrayCapacity when the closure ends).
TEST(StaleClosureTest, WideArrayOfLiveTargetsKeepsASmallGrayStack)
{
    RuntimeConfig cfg;
    cfg.heapBytes = 8u << 20;
    cfg.enableLeakPruning = false;
    cfg.barrierMode = BarrierMode::None;
    cfg.gcTriggerFraction = 0;
    cfg.verifier.enabled = false;
    Runtime rt(cfg);
    const class_id_t node = rt.defineClass("wide.Node", 0, 8);
    const class_id_t array = rt.defineRefArrayClass("wide.Node[]");

    constexpr std::size_t kLive = 256, kSlots = 128 * 256;
    HandleScope scope(rt.roots());
    Handle holder = scope.handle(rt.allocateRefArray(array, 2));
    // Allocated before the nodes: the newest allocation is a root.
    Handle wide = scope.handle(rt.allocateRefArray(array, kSlots));
    Handle live = scope.handle(rt.allocateRefArray(array, kLive));
    rt.writeRef(holder.get(), 0, live.get());
    for (std::size_t i = 0; i < kLive; ++i)
        rt.writeRef(live.get(), i, rt.allocate(node));
    for (std::size_t s = 0; s < kSlots; ++s)
        rt.writeRef(wide.get(), s, rt.readRef(live.get(), s % kLive));
    rt.writeRef(holder.get(), 1, wide.get());
    GlobalRoot root(rt.roots(), holder.get());
    OraclePlugin plugin;
    plugin.policy = deferStamped();
    wide.get()->setStaleCounter(kMaxStaleCounter);
    Object *const wide_obj = wide.get();
    live.set(nullptr);
    wide.set(nullptr);

    rt.installPluginForTesting(&plugin);
    rt.collectNow();
    ASSERT_EQ(plugin.candidates, std::vector<Object *>{wide_obj});
    EXPECT_EQ(plugin.bytes, std::vector<std::uint64_t>{wide_obj->sizeBytes()})
        << "only the array itself is claimed";
    EXPECT_LE(plugin.retained, 1024u);
    static_assert(Tracer::kRetainedGrayCapacity > 1024);
}

// --- The published edge rule --------------------------------------------------
//
// Leak pruning's whole per-edge decision is the rule its policy
// publishes. Checked against the paper's condition, written out here:
// an edge src -> tgt is a SELECT candidate iff tgt is not pinned and
// its stale counter at the start of the collection is at least the
// margin and at least its edge type's maxStaleUse plus the margin
// (Section 4.1); Default SELECT defers a candidate to the stale
// closure, Individual-refs SELECT traces it and charges its target;
// PRUNE poisons exactly the candidates of the selected type; and under
// the Most-stale predictor (Section 6.1) SELECT reads the highest
// counter and PRUNE poisons every unpinned target at least as stale as
// the level SELECT found, if that level reaches the margin. Checked for
// every state and predictor, with and without a selection, over every
// source and target class match, pinned bit and counter at start, the
// latter both before and after this collection's tick.

TEST(EdgeRuleTest, PublishedRuleIsThePapersCondition)
{
    RuntimeConfig cfg;
    cfg.heapBytes = 4u << 20;
    cfg.enableLeakPruning = false;
    cfg.barrierMode = BarrierMode::None;
    cfg.gcTriggerFraction = 0;
    cfg.verifier.enabled = false;
    Runtime rt(cfg);
    const class_id_t src_cls = rt.defineClass("rr.Src", 1, 8);
    const class_id_t other_src = rt.defineClass("rr.OtherSrc", 1, 8);
    const class_id_t tgt_cls = rt.defineClass("rr.Tgt", 0, 8);
    const class_id_t other_tgt = rt.defineClass("rr.OtherTgt", 0, 8);

    // A stale Src -> Tgt edge for the SELECT collection to choose.
    // Allocated before its source: the newest allocation is a root.
    HandleScope scope(rt.roots());
    Handle tgt = scope.handle(rt.allocate(tgt_cls));
    Handle src = scope.handle(rt.allocate(src_cls));
    rt.writeRef(src.get(), 0, tgt.get());
    tgt.set(nullptr);
    // Retire the allocation cache, so the test's flips find no lease.
    rt.collectNow();
    OrderedRoots roots;
    rt.roots().forEachRoot([&](ref_t *slot) { roots.slots.push_back(slot); });

    // The paper's condition. Uses at counters 2 and 4 protect
    // Src -> Tgt and OtherSrc -> Tgt (below); other types have
    // maxStaleUse 0. @p selected: a SELECT chose Src -> Tgt; @p level:
    // the most-stale level SELECT found. nullopt: an ordinary edge,
    // traced and not recorded.
    constexpr unsigned kMargin = 2; // LeakPruningConfig's default
    const auto max_stale_use = [&](class_id_t s, class_id_t t) -> unsigned {
        if (t != tgt_cls)
            return 0;
        return s == src_cls ? 2 : 4;
    };
    const auto paper = [&](PruningState state, Predictor predictor,
                           bool selected, unsigned level, class_id_t s,
                           class_id_t t, bool pinned,
                           unsigned at_start) -> std::optional<EdgeAction> {
        const bool candidate = !pinned && at_start >= kMargin &&
                               at_start >= max_stale_use(s, t) + kMargin;
        switch (state) {
          case PruningState::Select:
            if (!candidate || predictor == Predictor::MostStale)
                return std::nullopt;
            return predictor == Predictor::Default ? EdgeAction::Defer
                                                   : EdgeAction::Trace;
          case PruningState::Prune:
            if (predictor == Predictor::MostStale) {
                if (!pinned && level >= kMargin && at_start >= level)
                    return EdgeAction::Poison;
                return std::nullopt;
            }
            if (selected && candidate && s == src_cls && t == tgt_cls)
                return EdgeAction::Poison;
            return std::nullopt;
          default:
            return std::nullopt;
        }
    };

    std::map<EdgeAction, std::uint64_t> matched;
    Tracer tracer(rt.heap(), rt.classes());
    const auto check = [&](LeakPruning &engine, PruningState state,
                           Predictor predictor, bool selected, unsigned level,
                           std::uint64_t epoch) {
        engine.forceState(state);
        tracer.beginCollection(epoch, /*tick=*/true);
        const TracePolicy policy = engine.beginCollection(epoch);
        EXPECT_EQ(policy.recordMaxStale,
                  state == PruningState::Select && predictor == Predictor::MostStale);
        for (const class_id_t s : {src_cls, other_src}) {
            for (const class_id_t t : {tgt_cls, other_tgt}) {
                for (const bool pinned : {false, true}) {
                    for (unsigned at_start = 0; at_start <= kMaxStaleCounter;
                         ++at_start) {
                        for (const bool ticked : {false, true}) {
                            if (ticked && at_start == kMaxStaleCounter)
                                continue;
                            alignas(8) unsigned char tgt_mem[32] = {};
                            Object *to = Object::format(tgt_mem, t, 32);
                            to->setStaleCounter(at_start);
                            if (ticked)
                                to->tickStaleCounter(at_start + 1, epoch);
                            if (pinned)
                                to->setPinned(true);
                            ASSERT_EQ(to->staleCounterAtStart(epoch), at_start);
                            const bool matches =
                                policy.rule && tracer.ruleMatches(*policy.rule, s, to);
                            const std::optional<EdgeAction> want =
                                paper(state, predictor, selected, level, s, t,
                                      pinned, at_start);
                            EXPECT_EQ(matches, want.has_value())
                                << "state " << static_cast<int>(state)
                                << ", src " << s << ", tgt " << t
                                << ", pinned " << pinned << ", at start "
                                << at_start << ", ticked " << ticked;
                            if (matches && want) {
                                EXPECT_EQ(policy.rule->onMatch, *want);
                                ++matched[*want];
                            }
                        }
                    }
                }
            }
        }
    };

    for (const Predictor predictor :
         {Predictor::Default, Predictor::IndividualRefs, Predictor::MostStale}) {
        SCOPED_TRACE(testing::Message()
                     << "predictor " << static_cast<int>(predictor));
        LeakPruningConfig pcfg;
        pcfg.predictor = predictor;
        ASSERT_EQ(pcfg.staleUseMargin, kMargin);
        Telemetry telemetry;
        const auto protect = [&](LeakPruning &engine) {
            engine.forceState(PruningState::Observe);
            engine.onReferenceUsed(src_cls, tgt_cls, 2);
            engine.onReferenceUsed(other_src, tgt_cls, 4);
        };

        // No selection yet: PRUNE poisons nothing.
        LeakPruning fresh(rt.classes(), pcfg, telemetry);
        protect(fresh);
        for (const PruningState state :
             {PruningState::Inactive, PruningState::Observe,
              PruningState::Select, PruningState::Prune})
            check(fresh, state, predictor, false, 0, 9);

        // A SELECT of Src -> Tgt needs a counter of 4 at start; the
        // collection at epoch 64 finds the target at 5 and ticks it to
        // 6, the highest counter it marks.
        LeakPruning engine(rt.classes(), pcfg, telemetry);
        protect(engine);
        rt.peekRef(src.get(), 0)->setStaleCounter(5);
        collectWith(rt, engine, engine, tracer, roots, PruningState::Select, 64);
        ASSERT_TRUE(engine.selectedEdge().has_value());
        if (predictor == Predictor::MostStale) {
            EXPECT_EQ(engine.selectedEdge()->maxStaleUse, 6u);
        } else {
            EXPECT_TRUE(engine.selectedEdge()->type == (EdgeType{src_cls, tgt_cls}));
        }
        check(engine, PruningState::Prune, predictor, true, 6, 65);
    }
    EXPECT_GT(matched[EdgeAction::Defer], 0u);
    EXPECT_GT(matched[EdgeAction::Trace], 0u);
    EXPECT_GT(matched[EdgeAction::Poison], 0u);
}

} // namespace
} // namespace lp

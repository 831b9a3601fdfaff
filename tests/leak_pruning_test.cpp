/**
 * @file
 * Tests for the leak-pruning engine end to end: the read-barrier
 * staleness protocol, candidate selection, the two-phase closure, the
 * worked example of paper Figures 3-5, poisoning semantics, and the
 * deferred out-of-memory error.
 */

#include <gtest/gtest.h>

#include "core/errors.h"
#include "vm/handles.h"
#include "vm/runtime.h"

namespace lp {
namespace {

RuntimeConfig
pruningConfig(std::size_t heap_bytes = 8u << 20)
{
    RuntimeConfig cfg;
    cfg.heapBytes = heap_bytes;
    cfg.enableLeakPruning = true;
    cfg.barrierMode = BarrierMode::AllTheTime;
    cfg.pruning.reportPruning = false;
    return cfg;
}

// --- read-barrier staleness protocol ---------------------------------------

TEST(BarrierTest, CollectorTagsAndBarrierClears)
{
    Runtime rt(pruningConfig());
    const class_id_t cls = rt.defineClass("Box", 1, 0);
    HandleScope scope(rt.roots());
    Handle a = scope.handle(rt.allocate(cls));
    Handle b = scope.handle(rt.allocate(cls));
    rt.writeRef(a.get(), 0, b.get());

    rt.pruning()->forceState(PruningState::Observe);
    rt.collectNow();

    // The collector must have set the stale-check bit on a->b.
    EXPECT_TRUE(refHasStaleCheck(rt.peekRefBits(a.get(), 0)));
    b.get()->setStaleCounter(3);

    const auto cold_before = rt.barrierStats().coldPathHits.load();
    Object *read = rt.readRef(a.get(), 0);
    EXPECT_EQ(read, b.get());
    EXPECT_EQ(rt.barrierStats().coldPathHits.load(), cold_before + 1);
    // Cold path cleared the bit and zeroed the target's staleness.
    EXPECT_FALSE(refHasStaleCheck(rt.peekRefBits(a.get(), 0)));
    EXPECT_EQ(b.get()->staleCounter(), 0u);

    // Second read: fast path only.
    rt.readRef(a.get(), 0);
    EXPECT_EQ(rt.barrierStats().coldPathHits.load(), cold_before + 1);
}

TEST(BarrierTest, InactiveStateDoesNotTagReferences)
{
    Runtime rt(pruningConfig());
    const class_id_t cls = rt.defineClass("Box", 1, 0);
    HandleScope scope(rt.roots());
    Handle a = scope.handle(rt.allocate(cls));
    Handle b = scope.handle(rt.allocate(cls));
    rt.writeRef(a.get(), 0, b.get());
    rt.collectNow(); // INACTIVE: no analysis, no tagging
    EXPECT_FALSE(refHasStaleCheck(rt.peekRefBits(a.get(), 0)));
}

TEST(BarrierTest, StaleCountersGrowLogarithmically)
{
    Runtime rt(pruningConfig());
    const class_id_t cls = rt.defineClass("Idle", 1, 0);
    HandleScope scope(rt.roots());
    Handle obj = scope.handle(rt.allocate(cls));
    rt.pruning()->forceState(PruningState::Observe);

    // Value k should mean "last used about 2^k collections ago":
    // 16 collections must land the counter near 4-5, far below 16.
    for (int i = 0; i < 16; ++i)
        rt.collectNow();
    const unsigned k = obj.get()->staleCounter();
    EXPECT_GE(k, 3u);
    EXPECT_LE(k, 5u);
}

TEST(BarrierTest, UseRecordsMaxStaleUseInEdgeTable)
{
    Runtime rt(pruningConfig());
    const class_id_t src = rt.defineClass("Src", 1, 0);
    const class_id_t tgt = rt.defineClass("Tgt", 0, 8);
    HandleScope scope(rt.roots());
    Handle a = scope.handle(rt.allocate(src));
    Handle b = scope.handle(rt.allocate(tgt));
    rt.writeRef(a.get(), 0, b.get());

    rt.pruning()->forceState(PruningState::Observe);
    rt.collectNow(); // tag a->b
    b.get()->setStaleCounter(4);
    rt.readRef(a.get(), 0); // a use of a stale reference

    EXPECT_EQ(rt.pruning()->edgeTable().maxStaleUse({src, tgt}), 4u);
}

// --- the paper's worked example (Figures 3, 4 and 5) -------------------------

class WorkedExampleTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        rt = std::make_unique<Runtime>(pruningConfig());
        A = rt->defineClass("A", 4, 0);
        B = rt->defineClass("B", 1, 0);
        C = rt->defineClass("C", 2, 0);
        D = rt->defineClass("D", 1, 0);
        E = rt->defineClass("E", 1, 0);
        scope = std::make_unique<HandleScope>(rt->roots());

        // Figure 3's heap: a1 and e1 are roots; b1..b4 hang off a1;
        // b1->c1, b2->c2, b3->c3, b4->c4; each c has two d children
        // (c1: d1,d2; c2: d3,d4; c3: d5,d6; c4: d7,d8); e1->c4.
        a1 = scope->handle(rt->allocate(A));
        e1 = scope->handle(rt->allocate(E));
        for (int i = 0; i < 4; ++i) {
            HandleScope tmp(rt->roots());
            Handle b = tmp.handle(rt->allocate(B));
            Handle c = tmp.handle(rt->allocate(C));
            Handle d0 = tmp.handle(rt->allocate(D));
            Handle d1 = tmp.handle(rt->allocate(D));
            rt->writeRef(c.get(), 0, d0.get());
            rt->writeRef(c.get(), 1, d1.get());
            rt->writeRef(b.get(), 0, c.get());
            rt->writeRef(a1.get(), i, b.get());
            bs[i] = b.get();
            cs[i] = c.get();
        }
        rt->writeRef(e1.get(), 0, cs[3]); // e1 -> c4

        // Figure 5's staleness: c2's counter is 1 (not very stale);
        // the other c's are highly stale. E->C was once used at
        // staleness 2, so its maxStaleUse is 2 and pruning e1->c4
        // would require staleness >= 4.
        rt->pruning()->forceState(PruningState::Observe);
        for (Object *c : cs)
            c->setStaleCounter(3);
        cs[1]->setStaleCounter(1);
        rt->pruning()->onReferenceUsed(E, C, 2);
    }

    std::unique_ptr<Runtime> rt;
    std::unique_ptr<HandleScope> scope;
    class_id_t A, B, C, D, E;
    Handle a1, e1;
    Object *bs[4];
    Object *cs[4];
};

TEST_F(WorkedExampleTest, SelectChoosesBToCDataStructures)
{
    rt->pruning()->forceState(PruningState::Select);
    rt->collectNow();

    const auto &sel = rt->pruning()->selectedEdge();
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(sel->type, (EdgeType{B, C}));

    // bytesUsed must cover exactly the stale structures rooted at c1
    // and c3 (c + two d's each); c2 is not a candidate (staleness 1)
    // and c4's subtree is claimed by the in-use closure via e1.
    const std::size_t c_size = Object::scalarSize(rt->classes().info(C));
    const std::size_t d_size = Object::scalarSize(rt->classes().info(D));
    EXPECT_EQ(sel->bytesUsed, 2 * (c_size + 2 * d_size));

    // The paper's state machine: SELECT advances to PRUNE (option 2).
    EXPECT_EQ(rt->pruning()->state(), PruningState::Prune);
}

TEST_F(WorkedExampleTest, PrunePoisonsSelectedEdgesOnly)
{
    rt->pruning()->forceState(PruningState::Select);
    rt->collectNow(); // SELECT
    const auto dead_before = rt->heap().stats().objectsFreed;
    rt->collectNow(); // PRUNE

    // Figure 4: b1->c1, b3->c3 and b4->c4 are poisoned; b2->c2 is not.
    EXPECT_TRUE(refIsPoisoned(rt->peekRefBits(bs[0], 0)));
    EXPECT_FALSE(refIsPoisoned(rt->peekRefBits(bs[1], 0)));
    EXPECT_TRUE(refIsPoisoned(rt->peekRefBits(bs[2], 0)));
    EXPECT_TRUE(refIsPoisoned(rt->peekRefBits(bs[3], 0)));
    // e1->c4 survives untouched (E->C's maxStaleUse protects it).
    EXPECT_FALSE(refIsPoisoned(rt->peekRefBits(e1.get(), 0)));

    // Exactly c1, d1, d2, c3, d5, d6 are reclaimed: six objects. The
    // subtree at c4 is NOT reclaimed because e1 still reaches it.
    EXPECT_EQ(rt->heap().stats().objectsFreed - dead_before, 6u);

    // c4 must still be readable through e1 (a live path).
    EXPECT_EQ(rt->readRef(e1.get(), 0), cs[3]);
}

TEST_F(WorkedExampleTest, AccessToPrunedReferenceThrowsInternalError)
{
    rt->pruning()->forceState(PruningState::Select);
    rt->collectNow();
    rt->collectNow(); // PRUNE

    EXPECT_THROW(rt->readRef(bs[0], 0), InternalError);
    // b2 -> c2 was never pruned; reading it is fine.
    EXPECT_EQ(rt->readRef(bs[1], 0), cs[1]);
}

TEST_F(WorkedExampleTest, PoisonedReferenceStaysPoisonedAcrossGcs)
{
    rt->pruning()->forceState(PruningState::Select);
    rt->collectNow();
    rt->collectNow(); // PRUNE
    // Later collections must not trace or un-poison the pruned refs.
    rt->collectNow();
    rt->collectNow();
    EXPECT_TRUE(refIsPoisoned(rt->peekRefBits(bs[0], 0)));
    EXPECT_THROW(rt->readRef(bs[0], 0), InternalError);
    EXPECT_GE(rt->barrierStats().poisonThrows.load(), 1u);
}

TEST_F(WorkedExampleTest, UsingACandidateProtectsItsWholeEdgeType)
{
    rt->pruning()->forceState(PruningState::Select);
    rt->collectNow(); // SELECT: c1/c3 are candidates, PRUNE is next
    // The program uses b1->c1 (staleness 3) before the prune. That is
    // the paper's criterion (1): an instance of this edge type was
    // "stale for a while and then used again", so maxStaleUse(B->C)
    // rises to 3 and the PRUNE collection must leave the whole type
    // alone — including b3->c3, which was not itself touched.
    rt->readRef(bs[0], 0);
    EXPECT_EQ(rt->pruning()->edgeTable().maxStaleUse({B, C}), 3u);
    rt->collectNow(); // PRUNE: candidates now need staleness >= 5
    EXPECT_FALSE(refIsPoisoned(rt->peekRefBits(bs[0], 0)));
    EXPECT_FALSE(refIsPoisoned(rt->peekRefBits(bs[2], 0)));
    EXPECT_EQ(rt->readRef(bs[0], 0), cs[0]);
    EXPECT_EQ(rt->readRef(bs[2], 0), cs[2]);
}

TEST_F(WorkedExampleTest, DeferredCandidateStillCarriesStaleCheckTag)
{
    rt->pruning()->forceState(PruningState::Select);
    rt->collectNow();
    // Even though b1->c1 was deferred to the candidate queue rather
    // than traced, the collector must tag it so a subsequent use goes
    // through the barrier's cold path and rescues the structure.
    EXPECT_TRUE(refHasStaleCheck(rt->peekRefBits(bs[0], 0)));
}

// --- deferred out-of-memory semantics ----------------------------------------

TEST(PruningOomTest, InternalErrorCarriesOriginalOomAsCause)
{
    // A growing list of dead payloads in a small heap: the program
    // exhausts memory, pruning reclaims, and a later access to pruned
    // data must throw InternalError whose cause is the recorded OOM.
    RuntimeConfig cfg = pruningConfig(1u << 20);
    Runtime rt(cfg);
    const class_id_t node = rt.defineClass("Node", 2, 0); // next, payload
    const class_id_t payload = rt.defineClass("Payload", 0, 2048);

    HandleScope scope(rt.roots());
    Handle head = scope.handle(nullptr);
    Object *first_node = nullptr;
    try {
        while (true) {
            HandleScope inner(rt.roots());
            Handle p = inner.handle(rt.allocate(payload));
            Handle n = inner.handle(rt.allocate(node));
            rt.writeRef(n.get(), 0, head.get());
            rt.writeRef(n.get(), 1, p.get());
            head.set(n.get());
            if (!first_node)
                first_node = n.get();
            // Touch the spine so nodes stay live but payloads go stale.
            for (Object *walk = head.get(); walk;
                 walk = rt.readRef(walk, 0)) {
            }
        }
    } catch (const InternalError &err) {
        // Walking the spine eventually crossed a pruned payload? No:
        // spine refs are live. We only get here if pruning poisoned a
        // spine ref, which would be a bug.
        FAIL() << "live spine was pruned: " << err.what();
    } catch (const OutOfMemoryError &) {
        // Node spine itself is live and growing: eventually real OOM.
    }

    // Memory was exhausted at least once along the way, and pruning
    // must have recorded the deferred error.
    ASSERT_NE(rt.pruning()->avertedOutOfMemory(), nullptr);
    EXPECT_GT(rt.pruning()->stats().refsPoisoned, 0u);

    // Find a poisoned payload reference and access it.
    bool threw = false;
    for (Object *walk = head.get(); walk; walk = rt.peekRef(walk, 0)) {
        if (refIsPoisoned(rt.peekRefBits(walk, 1))) {
            try {
                rt.readRef(walk, 1);
            } catch (const InternalError &err) {
                threw = true;
                ASSERT_NE(err.cause(), nullptr);
                EXPECT_GT(err.cause()->requestedBytes(), 0u);
            }
            break;
        }
    }
    EXPECT_TRUE(threw) << "no poisoned payload reference found";
}

TEST(PruningOomTest, PruningDefersOomForDeadGrowth)
{
    // Pure leak (ListLeak shape): without pruning the program dies
    // quickly; with pruning it must survive many times longer.
    const std::size_t heap = 1u << 20;
    const int payload_bytes = 4096;

    auto run = [&](bool enable_pruning) -> int {
        RuntimeConfig cfg = pruningConfig(heap);
        cfg.enableLeakPruning = enable_pruning;
        cfg.barrierMode =
            enable_pruning ? BarrierMode::AllTheTime : BarrierMode::None;
        Runtime rt(cfg);
        const class_id_t node = rt.defineClass("LeakNode", 2, 0);
        const class_id_t payload = rt.defineClass("Big", 0, payload_bytes);
        HandleScope scope(rt.roots());
        Handle list = scope.handle(nullptr);
        int iterations = 0;
        try {
            for (; iterations < 4000; ++iterations) {
                HandleScope inner(rt.roots());
                Handle p = inner.handle(rt.allocate(payload));
                Handle n = inner.handle(rt.allocate(node));
                rt.writeRef(n.get(), 0, list.get());
                rt.writeRef(n.get(), 1, p.get());
                list.set(n.get());
            }
        } catch (const OutOfMemoryError &) {
        } catch (const InternalError &) {
        }
        return iterations;
    };

    const int base = run(false);
    const int pruned = run(true);
    EXPECT_LT(base, 300);
    EXPECT_GT(pruned, base * 4) << "pruning must extend a pure leak";
}

TEST(PruningOomTest, LiveGrowthStillDies)
{
    // DualLeak shape: the program re-reads everything each iteration,
    // so all growth is live and pruning cannot help (paper Table 1).
    RuntimeConfig cfg = pruningConfig(1u << 20);
    Runtime rt(cfg);
    const class_id_t node = rt.defineClass("LiveNode", 2, 0);
    const class_id_t payload = rt.defineClass("LivePayload", 0, 2048);
    HandleScope scope(rt.roots());
    Handle head = scope.handle(nullptr);
    bool died = false;
    try {
        for (int i = 0; i < 100000; ++i) {
            HandleScope inner(rt.roots());
            Handle p = inner.handle(rt.allocate(payload));
            Handle n = inner.handle(rt.allocate(node));
            rt.writeRef(n.get(), 0, head.get());
            rt.writeRef(n.get(), 1, p.get());
            head.set(n.get());
            // Touch every payload: everything is live.
            for (Object *w = head.get(); w; w = rt.readRef(w, 0))
                rt.readRef(w, 1);
        }
    } catch (const OutOfMemoryError &) {
        died = true;
    } catch (const InternalError &err) {
        // Acceptable per semantics only if something was pruned that
        // later got used; for fully live growth this should not occur.
        FAIL() << "live data was pruned: " << err.what();
    }
    EXPECT_TRUE(died);
}

} // namespace
} // namespace lp

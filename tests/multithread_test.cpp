/**
 * @file
 * Multithreaded integration tests (paper Section 4.5, "Concurrency
 * and Thread Safety"): several mutator threads allocating, reading
 * and writing concurrently while stop-the-world collections — and
 * leak pruning — run underneath.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/errors.h"
#include "object/object.h"
#include "vm/handles.h"
#include "vm/runtime.h"

namespace lp {
namespace {

TEST(MultithreadTest, ConcurrentAllocationIsSafe)
{
    RuntimeConfig cfg;
    cfg.heapBytes = 32u << 20;
    cfg.enableLeakPruning = false;
    cfg.barrierMode = BarrierMode::None;
    Runtime rt(cfg);
    const class_id_t cls = rt.defineClass("mt.Node", 1, 24);

    std::atomic<std::uint64_t> allocated{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            MutatorScope mutator(rt.threads());
            HandleScope scope(rt.roots());
            Handle keep = scope.handle(nullptr);
            for (int i = 0; i < 20000; ++i) {
                Object *obj = rt.allocate(cls);
                rt.writeRef(obj, 0, keep.get());
                if (i % 64 == 0)
                    keep.set(obj); // retain a sparse chain
                allocated.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    {
        // The joining thread is a registered mutator doing native
        // work; it must declare itself blocked or it would stall every
        // stop-the-world pause (the documented BlockedScope pattern).
        BlockedScope blocked(rt.threads());
        for (auto &t : threads)
            t.join();
    }
    EXPECT_EQ(allocated.load(), 80000u);
    EXPECT_GT(rt.gcStats().collections, 0u)
        << "32MB heap with ~5MB churn per thread must have collected";
    rt.heap().verifyIntegrity();
}

TEST(MultithreadTest, ReadersRunWhileCollectorStopsTheWorld)
{
    RuntimeConfig cfg;
    cfg.heapBytes = 16u << 20;
    cfg.enableLeakPruning = true; // barriers + safepoint polls on reads
    Runtime rt(cfg);
    const class_id_t cls = rt.defineClass("mt.Ring", 1, 8);

    // A shared ring the readers chase.
    GlobalRoot ring(rt.roots());
    {
        HandleScope scope(rt.roots());
        Handle first = scope.handle(rt.allocate(cls));
        Handle prev = scope.handle(first.get());
        for (int i = 1; i < 512; ++i) {
            Handle n = scope.handle(rt.allocate(cls));
            rt.writeRef(prev.get(), 0, n.get());
            prev.set(n.get());
        }
        rt.writeRef(prev.get(), 0, first.get());
        ring.set(first.get());
    }

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> reads{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&] {
            MutatorScope mutator(rt.threads());
            Object *cur = ring.get();
            while (!stop.load(std::memory_order_relaxed)) {
                cur = rt.readRef(cur, 0);
                reads.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    // The main thread doubles as an allocator forcing frequent
    // collections underneath the readers. Junk is dropped per
    // iteration so it is churn, not retention.
    {
        const class_id_t junk = rt.defineClass("mt.Junk", 0, 1024);
        for (int i = 0; i < 30000; ++i) {
            HandleScope scope(rt.roots());
            scope.handle(rt.allocate(junk));
        }
    }
    stop.store(true);
    {
        BlockedScope blocked(rt.threads());
        for (auto &t : readers)
            t.join();
    }

    EXPECT_GT(reads.load(), 100000u);
    EXPECT_GT(rt.gcStats().collections, 5u);
    // The ring is hot: nothing of it may ever have been pruned.
    EXPECT_EQ(rt.barrierStats().poisonThrows.load(), 0u);
}

TEST(MultithreadTest, PruningUnderConcurrentMutators)
{
    // Two threads each grow their own leak (dead payloads off a live
    // spine they walk); pruning must extend both without ever breaking
    // a live path.
    RuntimeConfig cfg;
    cfg.heapBytes = 4u << 20;
    cfg.enableLeakPruning = true;
    Runtime rt(cfg);
    const class_id_t node = rt.defineClass("mt.LeakNode", 2, 0);
    const class_id_t payload = rt.defineClass("mt.Payload", 0, 1024);

    std::atomic<std::uint64_t> total_iters{0};
    std::atomic<int> oom_count{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&] {
            MutatorScope mutator(rt.threads());
            HandleScope scope(rt.roots());
            Handle head = scope.handle(nullptr);
            try {
                for (int i = 0; i < 20000; ++i) {
                    HandleScope inner(rt.roots());
                    Handle p = inner.handle(rt.allocate(payload));
                    Handle n = inner.handle(rt.allocate(node));
                    rt.writeRef(n.get(), 0, head.get());
                    rt.writeRef(n.get(), 1, p.get());
                    head.set(n.get());
                    // Walk the live spine (never the payloads).
                    for (Object *w = head.get(); w; w = rt.readRef(w, 0)) {
                    }
                    total_iters.fetch_add(1, std::memory_order_relaxed);
                }
            } catch (const OutOfMemoryError &) {
                oom_count.fetch_add(1);
            }
            // InternalError would escape and fail the test: the spine
            // is live and must never be pruned.
        });
    }
    {
        BlockedScope blocked(rt.threads());
        for (auto &t : threads)
            t.join();
    }

    // Pruning must have reclaimed payloads: both threads together go
    // far beyond what the heap could hold un-pruned (~2000 nodes).
    EXPECT_GT(total_iters.load(), 6000u);
    EXPECT_GT(rt.pruning()->stats().refsPoisoned, 0u);
}

TEST(MultithreadTest, EdgeTableSharedAcrossThreads)
{
    // Barrier-driven maxStaleUse updates from many threads must land
    // in one shared edge table without losing the edge types.
    RuntimeConfig cfg;
    cfg.heapBytes = 16u << 20;
    cfg.enableLeakPruning = true;
    Runtime rt(cfg);
    const class_id_t src = rt.defineClass("mt.Src", 1, 0);
    const class_id_t tgt = rt.defineClass("mt.Tgt", 0, 8);

    rt.pruning()->forceState(PruningState::Observe);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            MutatorScope mutator(rt.threads());
            HandleScope scope(rt.roots());
            for (int i = 0; i < 200; ++i) {
                Handle a = scope.handle(rt.allocate(src));
                Handle b = scope.handle(rt.allocate(tgt));
                rt.writeRef(a.get(), 0, b.get());
                b.get()->setStaleCounter(2 + (t + i) % 4);
                rt.pruning()->onReferenceUsed(src, tgt,
                                              b.get()->staleCounter());
            }
        });
    }
    {
        BlockedScope blocked(rt.threads());
        for (auto &t : threads)
            t.join();
    }
    EXPECT_EQ(rt.pruning()->edgeTable().maxStaleUse({src, tgt}), 5u);
}

// --- barrier counters: per-mutator, summed exactly -----------------------

RuntimeConfig
observingConfig()
{
    RuntimeConfig cfg;
    cfg.heapBytes = 16u << 20;
    cfg.enableLeakPruning = true;
    cfg.pruning.reportPruning = false;
    return cfg;
}

/**
 * Root a reference array of @p n fresh boxes in @p root, then collect
 * in OBSERVE so every element reference carries the stale-check tag:
 * the first read of each element takes the cold path, later reads
 * the fast path.
 */
void
buildTaggedSlots(Runtime &rt, GlobalRoot &root, std::size_t n)
{
    const class_id_t arr = rt.defineRefArrayClass("mt.Slots");
    const class_id_t box = rt.defineClass("mt.Box", 0, 8);
    {
        HandleScope scope(rt.roots());
        Handle slots = scope.handle(rt.allocateRefArray(arr, n));
        for (std::size_t i = 0; i < n; ++i)
            rt.writeRef(slots.get(), i, rt.allocate(box));
        root.set(slots.get());
    }
    rt.pruning()->forceState(PruningState::Observe);
    rt.collectNow();
}

/** Read elements [first, first + count) of @p slots @p passes times. */
void
readSlots(Runtime &rt, Object *slots, std::size_t first, std::size_t count,
          int passes)
{
    for (int p = 0; p < passes; ++p)
        for (std::size_t i = first; i < first + count; ++i)
            ASSERT_NE(rt.readRef(slots, i), nullptr);
}

// Two readers take the read barrier's cold path on one tagged slot
// while a writer stores a new target into it. The slot CAS cleans the
// reference only if the slot still holds the tagged one, so the
// writer's store is never lost; the counter reset is a plain byte
// store, and the old target's counter must still end at 0 whenever a
// reader saw that target.
TEST(MultithreadTest, ColdPathRacesKeepTheWritersStore)
{
    RuntimeConfig cfg;
    cfg.heapBytes = 4u << 20;
    cfg.verifier.enabled = false;
    Runtime rt(cfg);
    const class_id_t holder_cls = rt.defineClass("mt.Holder", 1, 0);
    const class_id_t tgt_cls = rt.defineClass("mt.Target", 0, 8);
    HandleScope scope(rt.roots());
    Handle holder = scope.handle(rt.allocate(holder_cls));
    Handle old_tgt = scope.handle(rt.allocate(tgt_cls));
    Handle new_tgt = scope.handle(rt.allocate(tgt_cls));
    Object *const holder_obj = holder.get();
    Object *const old_obj = old_tgt.get();
    Object *const new_obj = new_tgt.get();

    // Rounds start when `round` advances and end when all three
    // threads have reported; nothing allocates, so no pause intervenes.
    constexpr int kRounds = 3000;
    constexpr int kThreads = 3;
    std::atomic<int> round{0};
    std::atomic<int> done{0};
    std::atomic<bool> saw_old[2] = {false, false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            MutatorScope mutator(rt.threads());
            for (int r = 1; r <= kRounds; ++r) {
                while (round.load(std::memory_order_acquire) < r) {
                }
                if (t < 2) {
                    if (rt.readRef(holder_obj, 0) == old_obj)
                        saw_old[t].store(true, std::memory_order_relaxed);
                } else {
                    rt.writeRef(holder_obj, 0, new_obj);
                }
                done.fetch_add(1, std::memory_order_acq_rel);
            }
        });
    }

    int lost_stores = 0, stale_left = 0, raced = 0;
    {
        BlockedScope blocked(rt.threads());
        for (int r = 1; r <= kRounds; ++r) {
            rt.pokeRefBitsForTesting(holder_obj, 0, refWithStaleCheck(makeRef(old_obj)));
            old_obj->setStaleCounter(5);
            saw_old[0].store(false, std::memory_order_relaxed);
            saw_old[1].store(false, std::memory_order_relaxed);
            round.store(r, std::memory_order_release);
            while (done.load(std::memory_order_acquire) < r * kThreads) {
            }
            lost_stores += rt.peekRefBits(holder_obj, 0) != makeRef(new_obj);
            if (saw_old[0].load(std::memory_order_relaxed) ||
                saw_old[1].load(std::memory_order_relaxed)) {
                ++raced;
                stale_left += old_obj->staleCounter() != 0;
            }
        }
        for (auto &t : threads)
            t.join();
    }
    EXPECT_EQ(lost_stores, 0) << "a cold-path CAS overwrote the writer's store";
    EXPECT_EQ(stale_left, 0) << "a cold path left the old target's counter";
    EXPECT_GT(raced, 0) << "no reader ever took the cold path";
}

TEST(MultithreadTest, BarrierCountsAreExactAfterJoin)
{
    constexpr int kThreads = 4;
    constexpr std::size_t kSlotsPerThread = 256;
    constexpr int kPasses = 64;
    Runtime rt(observingConfig());
    GlobalRoot slots(rt.roots());
    buildTaggedSlots(rt, slots, kThreads * kSlotsPerThread);
    const BarrierStats before = rt.barrierStats();

    // Disjoint ranges: two threads racing on one tagged slot could
    // both take its cold path, which is correct but not countable.
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            MutatorScope mutator(rt.threads());
            readSlots(rt, slots.get(), t * kSlotsPerThread, kSlotsPerThread,
                      kPasses);
        });
    }
    {
        BlockedScope blocked(rt.threads());
        for (auto &t : threads)
            t.join();
    }

    const BarrierStats after = rt.barrierStats();
    EXPECT_EQ(after.reads - before.reads,
              std::uint64_t{kThreads} * kSlotsPerThread * kPasses);
    EXPECT_EQ(after.coldPathHits - before.coldPathHits,
              std::uint64_t{kThreads} * kSlotsPerThread);
    EXPECT_EQ(after.staleResets - before.staleResets,
              std::uint64_t{kThreads} * kSlotsPerThread);
    EXPECT_EQ(after.poisonThrows.load(), 0u);
}

TEST(MultithreadTest, BarrierStatsMidRunAreMonotone)
{
    constexpr int kThreads = 3;
    constexpr std::size_t kSlots = 64;
    constexpr std::uint64_t kEarlyExitReads = 100000;
    Runtime rt(observingConfig());
    GlobalRoot slots(rt.roots());
    buildTaggedSlots(rt, slots, kSlots);

    // Reader 0 exits after a fixed count while the sampler runs, so
    // samples straddle its counts being folded into the exited total.
    std::atomic<bool> stop{false};
    std::atomic<bool> early_exited{false};
    std::vector<std::uint64_t> done(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::uint64_t n = 0;
            {
                MutatorScope mutator(rt.threads());
                for (std::size_t i = 0;
                     t == 0 ? n < kEarlyExitReads
                            : !stop.load(std::memory_order_relaxed);
                     i = (i + 1) % kSlots, ++n)
                    rt.readRef(slots.get(), i);
            }
            done[t] = n;
            if (t == 0)
                early_exited.store(true);
        });
    }

    std::uint64_t last_reads = 0;
    std::uint64_t last_cold = 0;
    for (int sample = 0; sample < 2000 || !early_exited.load(); ++sample) {
        const BarrierStats now = rt.barrierStats();
        ASSERT_GE(now.reads.load(), last_reads);
        ASSERT_GE(now.coldPathHits.load(), last_cold);
        last_reads = now.reads.load();
        last_cold = now.coldPathHits.load();
    }
    stop.store(true);
    {
        BlockedScope blocked(rt.threads());
        for (auto &t : threads)
            t.join();
    }

    EXPECT_EQ(done[0], kEarlyExitReads);
    std::uint64_t total = 0;
    for (std::uint64_t n : done)
        total += n;
    const BarrierStats after = rt.barrierStats();
    EXPECT_EQ(after.reads.load(), total);
    EXPECT_GE(after.reads.load(), last_reads);
    // Readers share the slots, so a tagged slot may be cold-read by
    // more than one of them, but never more than once each.
    EXPECT_GE(after.coldPathHits.load(), kSlots);
    EXPECT_LE(after.coldPathHits.load(), kThreads * kSlots);
}

TEST(MultithreadTest, UnregisteredThreadKeepsItsBarrierCounts)
{
    constexpr std::size_t kSlots = 32;
    constexpr int kPasses = 10;
    Runtime rt(observingConfig());
    GlobalRoot slots(rt.roots());
    buildTaggedSlots(rt, slots, kSlots);

    // Two short-lived readers in turn: the first's counts must survive
    // its entry being erased, and must not leak into the second's.
    for (int round = 1; round <= 2; ++round) {
        std::thread reader([&] {
            MutatorScope mutator(rt.threads());
            readSlots(rt, slots.get(), 0, kSlots, kPasses);
        });
        {
            BlockedScope blocked(rt.threads());
            reader.join();
        }
        EXPECT_EQ(rt.threads().mutatorCount(), 1u);
        const BarrierStats stats = rt.barrierStats();
        EXPECT_EQ(stats.reads.load(), static_cast<std::uint64_t>(round) * kSlots * kPasses);
        // Only the first reader found the slots tagged.
        EXPECT_EQ(stats.coldPathHits.load(), kSlots);
        EXPECT_EQ(stats.staleResets.load(), kSlots);
    }
}

TEST(MultithreadTest, TwoRuntimesOnOneThreadCountSeparately)
{
    // Both constructors register this thread, so each read below
    // switches the thread's cached registry entry.
    Runtime a(observingConfig());
    Runtime b(observingConfig());
    GlobalRoot a_slots(a.roots());
    GlobalRoot b_slots(b.roots());
    buildTaggedSlots(a, a_slots, 3);
    buildTaggedSlots(b, b_slots, 5);

    for (int i = 0; i < 100; ++i) {
        readSlots(a, a_slots.get(), 0, 3, 1);
        readSlots(b, b_slots.get(), 0, 5, 1);
    }

    EXPECT_EQ(a.barrierStats().reads.load(), 300u);
    EXPECT_EQ(b.barrierStats().reads.load(), 500u);
    EXPECT_EQ(a.barrierStats().coldPathHits.load(), 3u);
    EXPECT_EQ(b.barrierStats().coldPathHits.load(), 5u);

    // Allocation finds its cache through the same per-thread entry:
    // interleaved allocations must each land in their own heap.
    const class_id_t a_cls = a.defineClass("mt.A", 0, 16);
    const class_id_t b_cls = b.defineClass("mt.B", 0, 48);
    a.collectNow(); // retire both caches: allocation counts now exact
    b.collectNow();
    const std::uint64_t a_before = a.heap().stats().allocations;
    const std::uint64_t b_before = b.heap().stats().allocations;
    for (int i = 0; i < 100; ++i) {
        a.allocate(a_cls);
        b.allocate(b_cls);
        b.allocate(b_cls);
    }
    a.collectNow();
    b.collectNow();
    EXPECT_EQ(a.heap().stats().allocations - a_before, 100u);
    EXPECT_EQ(b.heap().stats().allocations - b_before, 200u);
}

TEST(MultithreadTest, ParkedMutatorsHandlesKeepItsObjectsAlive)
{
    RuntimeConfig cfg;
    cfg.heapBytes = 8u << 20;
    cfg.enableLeakPruning = false;
    cfg.barrierMode = BarrierMode::None;
    Runtime rt(cfg);
    const class_id_t held_cls = rt.defineClass("mt.Held", 1, 8);
    const class_id_t junk_cls = rt.defineClass("mt.Junk", 1, 8);
    // More than one block of the worker's handle stack.
    const std::size_t held_count = HandleStack::kBlockSlots + 44;

    std::vector<Object *> held(held_count);
    std::atomic<bool> ready{false};
    std::atomic<bool> done{false};
    std::size_t lost = 0;
    std::thread worker([&] {
        MutatorScope mutator(rt.threads());
        HandleScope scope(rt.roots());
        std::vector<Handle> handles;
        for (std::size_t i = 0; i < held_count; ++i) {
            handles.push_back(scope.handle(rt.allocate(held_cls)));
            held[i] = handles[i].get();
        }
        rt.releaseAllocationRoot();
        ready.store(true, std::memory_order_release);
        while (!done.load(std::memory_order_acquire))
            rt.safepoint(); // parks through the main thread's pauses
        for (std::size_t i = 0; i < held_count; ++i)
            lost += handles[i].get() != held[i] || handles[i]->classId() != held_cls;
    });

    while (!ready.load(std::memory_order_acquire))
        rt.safepoint();
    rt.releaseAllocationRoot();
    EXPECT_EQ(rt.collectNow().objectsMarked, held_count);
    // Churn through the space a lost object's cell would be reused from.
    for (int i = 0; i < 100000; ++i)
        rt.allocate(junk_cls);
    rt.releaseAllocationRoot();
    EXPECT_EQ(rt.collectNow().objectsMarked, held_count);
    EXPECT_GT(rt.gcStats().collections, 2u);
    done.store(true, std::memory_order_release);
    {
        BlockedScope blocked(rt.threads());
        worker.join();
    }
    EXPECT_EQ(lost, 0u);
}

TEST(MultithreadTest, ExitingMutatorReturnsItsLeasesAtOnce)
{
    RuntimeConfig cfg;
    cfg.heapBytes = 8u << 20;
    cfg.enableLeakPruning = false;
    cfg.barrierMode = BarrierMode::None;
    Runtime rt(cfg);
    const class_id_t small = rt.defineClass("mt.Small", 0, 16);
    const class_id_t medium = rt.defineClass("mt.Medium", 0, 200);
    const std::size_t leased_before = rt.heap().leasedChunkCount();
    const std::uint64_t allocations_before = rt.heap().stats().allocations;
    const std::uint64_t collections_before = rt.gcStats().collections;

    std::thread worker([&] {
        MutatorScope mutator(rt.threads());
        for (int i = 0; i < 100; ++i) {
            rt.allocate(small);
            rt.allocate(medium);
        }
        EXPECT_GE(rt.heap().leasedChunkCount(), leased_before + 2);
    });
    {
        BlockedScope blocked(rt.threads());
        worker.join();
    }

    // No pause ran, yet the thread's leases are back in the heap and
    // its allocations are counted: both happen as its record goes.
    ASSERT_EQ(rt.gcStats().collections, collections_before);
    EXPECT_EQ(rt.heap().leasedChunkCount(), leased_before);
    EXPECT_EQ(rt.heap().stats().allocations - allocations_before, 200u);
    EXPECT_EQ(rt.threads().mutatorCount(), 1u);
}

} // namespace
} // namespace lp

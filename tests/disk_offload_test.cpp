/**
 * @file
 * Tests for the disk-offload baseline (LeakSurvivor/Melt model):
 * offloading frees heap, faulted-in objects come back bit-for-bit,
 * mispredictions are survivable (the key semantic difference from
 * pruning), shared subgraphs resolve through the forwarding map, only
 * stale unpinned targets move, a subgraph rescued from a full disk
 * counts as marked, and a full disk ends tolerance the way the paper
 * describes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "collections/managed_hash_map.h"
#include "collections/managed_list.h"
#include "collections/managed_vector.h"
#include "core/errors.h"
#include "vm/handles.h"
#include "vm/runtime.h"

namespace lp {
namespace {

RuntimeConfig
offloadConfig(std::size_t heap = 4u << 20,
              std::size_t disk = 64u << 20)
{
    RuntimeConfig cfg;
    cfg.heapBytes = heap;
    cfg.enableLeakPruning = true;
    cfg.tolerance = ToleranceMode::DiskOffload;
    cfg.offload.diskBudgetBytes = disk;
    return cfg;
}

/** Grow a spine of nodes with dead payloads until death or cap. */
std::uint64_t
growLeak(Runtime &rt, class_id_t node, class_id_t payload, Handle &head,
         std::uint64_t cap, bool stamp = false)
{
    std::uint64_t i = 0;
    try {
        for (; i < cap; ++i) {
            HandleScope inner(rt.roots());
            Handle p = inner.handle(rt.allocate(payload));
            if (stamp) {
                const ClassInfo &cls = rt.classes().info(payload);
                std::uint64_t value = 0xfeed0000 + i;
                std::memcpy(p.get()->dataPtr(cls), &value, 8);
            }
            Handle n = inner.handle(rt.allocate(node));
            rt.writeRef(n.get(), 0, head.get());
            rt.writeRef(n.get(), 1, p.get());
            head.set(n.get());
        }
    } catch (const OutOfMemoryError &) {
    }
    return i;
}

TEST(DiskOffloadTest, ExtendsAPureLeakLikePruningWould)
{
    Runtime rt(offloadConfig());
    const class_id_t node = rt.defineClass("do.Node", 2, 0);
    const class_id_t payload = rt.defineClass("do.Payload", 0, 2048);
    HandleScope scope(rt.roots());
    Handle head = scope.handle(nullptr);
    const std::uint64_t iters = growLeak(rt, node, payload, head, 12000);
    // A 4MB heap holds ~1900 payloads; offloading must go far past.
    EXPECT_GT(iters, 6000u);
    EXPECT_GT(rt.diskOffload()->stats().objectsOffloaded, 0u);
    EXPECT_GT(rt.diskOffload()->stats().diskLiveBytes, 0u);
}

TEST(DiskOffloadTest, MispredictionsAreSurvivable)
{
    // THE semantic difference from pruning (paper Section 7): access
    // to moved data faults it back instead of throwing.
    Runtime rt(offloadConfig());
    const class_id_t node = rt.defineClass("do.Node", 2, 0);
    const class_id_t payload = rt.defineClass("do.Payload", 0, 2048);
    HandleScope scope(rt.roots());
    Handle head = scope.handle(nullptr);
    growLeak(rt, node, payload, head, 8000, /*stamp=*/true);

    // Walk the whole spine and read EVERY payload — in a pruning run
    // this would throw InternalError at the first pruned reference.
    std::uint64_t seen = 0;
    std::uint64_t spot_checks = 0;
    for (Object *w = head.get(); w; w = rt.readRef(w, 0)) {
        Object *p = rt.readRef(w, 1); // faults in if offloaded
        ASSERT_NE(p, nullptr);
        if (seen % 97 == 0) {
            const ClassInfo &cls = rt.classes().info(p->classId());
            std::uint64_t value;
            std::memcpy(&value, p->dataPtr(cls), 8);
            EXPECT_EQ(value & 0xffff0000u, 0xfeed0000u) << seen;
            ++spot_checks;
        }
        ++seen;
    }
    EXPECT_GT(seen, 4000u);
    EXPECT_GT(spot_checks, 40u);
    EXPECT_GT(rt.diskOffload()->stats().objectsRetrieved, 0u);
}

TEST(DiskOffloadTest, FaultedObjectsKeepExactPayload)
{
    Runtime rt(offloadConfig(2u << 20));
    const class_id_t node = rt.defineClass("do.Node", 2, 0);
    const class_id_t blob = rt.defineByteArrayClass("do.blob");

    HandleScope scope(rt.roots());
    Handle head = scope.handle(nullptr);
    // Byte-array payloads with位置-dependent contents.
    std::uint64_t count = 0;
    try {
        for (; count < 4000; ++count) {
            HandleScope inner(rt.roots());
            Handle b = inner.handle(rt.allocateByteArray(blob, 1500));
            for (int j = 0; j < 1500; j += 125)
                b.get()->bytePtr()[j] =
                    static_cast<unsigned char>((count + j) & 0xff);
            Handle n = inner.handle(rt.allocate(node));
            rt.writeRef(n.get(), 0, head.get());
            rt.writeRef(n.get(), 1, b.get());
            head.set(n.get());
        }
    } catch (const OutOfMemoryError &) {
    }
    ASSERT_GT(rt.diskOffload()->stats().objectsOffloaded, 0u);

    // Verify payload integrity from the tail (the oldest = offloaded).
    std::uint64_t idx = count - 1; // head is the newest
    for (Object *w = head.get(); w; w = rt.readRef(w, 0), --idx) {
        Object *b = rt.readRef(w, 1);
        ASSERT_EQ(b->arrayLength(), 1500u);
        for (int j = 0; j < 1500; j += 125) {
            ASSERT_EQ(b->bytePtr()[j],
                      static_cast<unsigned char>((idx + j) & 0xff))
                << "payload " << idx << " byte " << j;
        }
        if (idx == 0)
            break;
    }
}

TEST(DiskOffloadTest, SharedSubgraphResolvesThroughForwarding)
{
    Runtime rt(offloadConfig());
    const class_id_t holder = rt.defineClass("do.Holder", 1, 0);
    const class_id_t shared = rt.defineClass("do.Shared", 0, 64);

    HandleScope scope(rt.roots());
    // Two holders point at one shared object; everything goes stale.
    Handle a = scope.handle(rt.allocate(holder));
    Handle b = scope.handle(rt.allocate(holder));
    Handle s = scope.handle(rt.allocate(shared));
    rt.writeRef(a.get(), 0, s.get());
    rt.writeRef(b.get(), 0, s.get());
    Object *orig = s.get();
    s.set(nullptr);

    // Hold a and b via an on-heap container that is itself stale, so
    // the subgraph {container, a, b, shared} can be offloaded... too
    // complex: instead, age the objects and force offloading directly.
    for (Object *obj : {a.get(), b.get(), orig})
        obj->setStaleCounter(4);
    // Fill the heap so offloading engages.
    const class_id_t junk = rt.defineClass("do.Junk", 0, 2048);
    Handle spine_head = scope.handle(nullptr);
    const class_id_t node = rt.defineClass("do.Node", 2, 0);
    growLeak(rt, node, junk, spine_head, 6000);

    // If the shared object was offloaded (it may or may not be,
    // depending on timing), reading through both holders must yield
    // the SAME heap object.
    Object *via_a = rt.readRef(a.get(), 0);
    Object *via_b = rt.readRef(b.get(), 0);
    EXPECT_EQ(via_a, via_b);
    EXPECT_NE(via_a, nullptr);
}

TEST(DiskOffloadTest, DiskExhaustionEndsTolerance)
{
    // "All will eventually exhaust disk space and crash" (Section 7).
    Runtime rt(offloadConfig(2u << 20, /*disk=*/1u << 20));
    const class_id_t node = rt.defineClass("do.Node", 2, 0);
    const class_id_t payload = rt.defineClass("do.Payload", 0, 2048);
    HandleScope scope(rt.roots());
    Handle head = scope.handle(nullptr);
    const std::uint64_t iters = growLeak(rt, node, payload, head, 100000);
    EXPECT_TRUE(rt.diskOffload()->stats().diskExhausted);
    // Tolerance window ~ (heap + disk) / leak rate: well under the cap.
    EXPECT_LT(iters, 4000u);
    EXPECT_GT(iters, 800u);
}

// The offloader's edge rule: an edge into a pinned target, or into one
// whose counter at the collection's start is below staleThreshold, is
// traced; an edge into a stale unpinned target is offloaded; and once
// the disk is exhausted a collection defers nothing, so every target
// stays in the heap.
TEST(DiskOffloadTest, OffloadsOnlyStaleUnpinnedTargetsUntilTheDiskIsFull)
{
    for (const std::size_t disk : {std::size_t{64} << 20, std::size_t{1}}) {
        SCOPED_TRACE(testing::Message() << "disk budget " << disk);
        RuntimeConfig cfg = offloadConfig(4u << 20, disk);
        cfg.gcTriggerFraction = 0;
        cfg.offload.observeThreshold = 0; // observe after collection 1
        cfg.offload.offloadThreshold = 0; // and offload in collection 2
        Runtime rt(cfg);
        const class_id_t holder_cls = rt.defineClass("do.Holder", 4, 0);
        const class_id_t target_cls = rt.defineClass("do.Target", 0, 64);

        HandleScope scope(rt.roots());
        Handle holder = scope.handle(nullptr);
        Object *targets[4];
        {
            // The holder last: a mutator's latest allocation is a root.
            HandleScope inner(rt.roots());
            for (Object *&target : targets)
                target = inner.handle(rt.allocate(target_cls)).get();
            holder.set(rt.allocate(holder_cls));
            for (std::size_t i = 0; i < 4; ++i)
                rt.writeRef(holder.get(), i, targets[i]);
        }
        rt.collectNow(); // collection 1: not observing yet, ticks nothing
        ASSERT_EQ(cfg.offload.staleThreshold, 2u);
        targets[0]->setPinned(true);
        targets[0]->setStaleCounter(kMaxStaleCounter);
        // Collection 2 ticks it to 2, but it read 1 when it began.
        targets[1]->setStaleCounter(1);
        targets[2]->setStaleCounter(kMaxStaleCounter);
        targets[3]->setStaleCounter(kMaxStaleCounter);
        rt.collectNow(); // collection 2: offloads

        const DiskOffloadStats &stats = rt.diskOffload()->stats();
        const auto offloaded = [&](std::size_t i) {
            return refIsPoisoned(rt.peekRefBits(holder.get(), i));
        };
        EXPECT_FALSE(offloaded(0)) << "pinned";
        EXPECT_FALSE(offloaded(1)) << "below staleThreshold at start";
        EXPECT_TRUE(offloaded(2));
        EXPECT_EQ(stats.offloadCollections, 1u);
        if (disk > 1) {
            EXPECT_TRUE(offloaded(3));
            EXPECT_EQ(stats.objectsOffloaded, 2u);
            EXPECT_FALSE(stats.diskExhausted);
            continue;
        }
        // The first stale target filled the disk; the second was kept.
        EXPECT_FALSE(offloaded(3));
        EXPECT_EQ(stats.objectsOffloaded, 1u);
        ASSERT_TRUE(stats.diskExhausted);

        targets[1]->setStaleCounter(kMaxStaleCounter);
        rt.collectNow(); // collection 3: the disk is full
        EXPECT_TRUE(stats.diskExhausted);
        EXPECT_EQ(stats.offloadCollections, 1u);
        EXPECT_EQ(stats.objectsOffloaded, 1u);
        std::size_t in_heap = 0;
        rt.heap().forEachObject([&](Object *obj) {
            in_heap += obj == targets[0] || obj == targets[1] || obj == targets[3];
        });
        EXPECT_EQ(in_heap, 3u);
        for (const std::size_t i : {0u, 1u, 3u}) {
            EXPECT_FALSE(offloaded(i));
            EXPECT_EQ(rt.readRef(holder.get(), i), targets[i]);
        }
        EXPECT_TRUE(rt.verifyHeap().clean());
    }
}

// A deferred subgraph the full disk cannot take is rescued: the
// offloader's own closure marks it so the flip keeps it. Its objects
// count in the collection's objectsMarked and in the collector's
// total, like the ones the in-use closure marks.
TEST(DiskOffloadTest, RescuedSubgraphCountsAsMarked)
{
    RuntimeConfig cfg = offloadConfig(4u << 20, 1); // a 1-byte disk
    cfg.gcTriggerFraction = 0;
    cfg.offload.observeThreshold = 0; // observe after collection 1
    cfg.offload.offloadThreshold = 0; // and offload in collection 2
    Runtime rt(cfg);
    const class_id_t holder_cls = rt.defineClass("do.Holder", 2, 0);
    const class_id_t node_cls = rt.defineClass("do.Node", 1, 64);

    HandleScope scope(rt.roots());
    Handle holder = scope.handle(nullptr);
    {
        // Two chains of three nodes, each reached only through its
        // head's slot in the holder. The holder last: a mutator's
        // latest allocation is a root.
        HandleScope inner(rt.roots());
        Object *heads[2];
        for (Object *&head : heads) {
            head = nullptr;
            for (int i = 0; i < 3; ++i) {
                Object *node = inner.handle(rt.allocate(node_cls)).get();
                if (head)
                    rt.writeRef(node, 0, head);
                head = node;
            }
        }
        holder.set(rt.allocate(holder_cls));
        for (std::size_t i = 0; i < 2; ++i) {
            rt.writeRef(holder.get(), i, heads[i]);
            heads[i]->setStaleCounter(kMaxStaleCounter);
        }
    }
    rt.collectNow(); // collection 1: not observing yet, ticks nothing

    const std::uint64_t marked_before = rt.gcStats().objectsMarkedTotal;
    const CollectionOutcome outcome = rt.collectNow(); // collection 2
    const DiskOffloadStats &stats = rt.diskOffload()->stats();
    ASSERT_EQ(stats.objectsOffloaded, 3u) << "one chain fills the disk";
    ASSERT_TRUE(stats.diskExhausted);
    EXPECT_NE(refIsPoisoned(rt.peekRefBits(holder.get(), 0)),
              refIsPoisoned(rt.peekRefBits(holder.get(), 1)))
        << "one chain offloaded, the other rescued";
    // The holder, from the roots, and the rescued chain's three nodes.
    EXPECT_EQ(outcome.objectsMarked, 4u);
    EXPECT_EQ(rt.gcStats().objectsMarkedTotal - marked_before, 4u);
    EXPECT_TRUE(rt.verifyHeap().clean());
}

TEST(DiskOffloadTest, LiveDataNeverMovedWrongly)
{
    // Hot data (touched every iteration) must stay in the heap: zero
    // retrievals means zero mispredictions on the hot path.
    Runtime rt(offloadConfig());
    const class_id_t node = rt.defineClass("do.Node", 2, 0);
    const class_id_t payload = rt.defineClass("do.Payload", 0, 1024);
    const class_id_t hot_cls = rt.defineClass("do.Hot", 1, 64);

    HandleScope scope(rt.roots());
    Handle hot = scope.handle(rt.allocate(hot_cls));
    Handle hot2 = scope.handle(rt.allocate(hot_cls));
    rt.writeRef(hot.get(), 0, hot2.get());

    Handle head = scope.handle(nullptr);
    std::uint64_t i = 0;
    try {
        for (; i < 8000; ++i) {
            HandleScope inner(rt.roots());
            Handle p = inner.handle(rt.allocate(payload));
            Handle n = inner.handle(rt.allocate(node));
            rt.writeRef(n.get(), 0, head.get());
            rt.writeRef(n.get(), 1, p.get());
            head.set(n.get());
            (void)rt.readRef(hot.get(), 0); // keep it hot
        }
    } catch (const OutOfMemoryError &) {
    }
    EXPECT_GT(i, 4000u);
    EXPECT_EQ(rt.readRef(hot.get(), 0), hot2.get());
}

TEST(DiskOffloadTest, FaultsDuringAVectorWalkKeepItsArrayInTheHeap)
{
    // DualLeak's shape: every round appends records to a vector and
    // then walks it, reading each record's detail, so all growth stays
    // live. Once the heap is full the walk faults records and details
    // back in, and a collection inside a fault's allocation finds the
    // vector's backing array, and the record being repaired, stale.
    // Both must stay in the heap until the walk and the repair are
    // done; an offloaded copy's slot would be freed memory.
    Runtime rt(offloadConfig(1u << 20));
    ManagedVector vectors(rt, "do.Records");
    const class_id_t record = rt.defineClass("do.Record", 1, 120);
    const class_id_t detail = rt.defineClass("do.Detail", 0, 120);
    GlobalRoot records(rt.roots(), vectors.create());

    std::uint64_t walks_with_faults = 0;
    while (walks_with_faults < 20) {
        for (int i = 0; i < 8; ++i) {
            HandleScope scope(rt.roots());
            Handle d = scope.handle(rt.allocate(detail));
            Handle r = scope.handle(rt.allocate(record));
            rt.writeRef(r.get(), 0, d.get());
            vectors.push(records.get(), r.get());
        }
        const std::uint64_t retrieved_before =
            rt.diskOffload()->stats().objectsRetrieved;
        std::size_t seen = 0;
        vectors.forEach(records.get(), [&](Object *rec) {
            ASSERT_EQ(rec->classId(), record);
            ASSERT_EQ(rt.readRef(rec, 0)->classId(), detail);
            ++seen;
        });
        ASSERT_EQ(seen, vectors.size(records.get()));
        if (rt.diskOffload()->stats().objectsRetrieved > retrieved_before)
            ++walks_with_faults;
    }
    EXPECT_GT(rt.diskOffload()->stats().offloadCollections, 0u);
}

/**
 * DualLeak's round (see the vector walk test above) over a list and a
 * map: append records, then walk each collection with a callback that
 * reads every record's detail, so faults run inside the walks. Returns
 * once @p rounds walks have faulted.
 */
template <class Append, class Walk>
void
walkWhileFaulting(Runtime &rt, class_id_t record, class_id_t detail,
                  std::uint64_t rounds, Append append, Walk walk)
{
    std::uint64_t walks_with_faults = 0;
    while (walks_with_faults < rounds) {
        for (int i = 0; i < 8; ++i) {
            HandleScope scope(rt.roots());
            Handle d = scope.handle(rt.allocate(detail));
            Handle r = scope.handle(rt.allocate(record));
            rt.writeRef(r.get(), 0, d.get());
            append(r.get());
        }
        const std::uint64_t retrieved_before =
            rt.diskOffload()->stats().objectsRetrieved;
        walk([&](Object *rec) {
            ASSERT_EQ(rec->classId(), record);
            ASSERT_EQ(rt.readRef(rec, 0)->classId(), detail);
        });
        if (rt.diskOffload()->stats().objectsRetrieved > retrieved_before)
            ++walks_with_faults;
    }
    EXPECT_GT(rt.diskOffload()->stats().offloadCollections, 0u);
}

TEST(DiskOffloadTest, CollectionsDuringAListWalkKeepItsNodeInTheHeap)
{
    // A callback that fills the heap across several clock-ticking
    // collections ages the node the walk stands on past the offload
    // threshold, and the walk then reads that node's next slot.
    Runtime rt(offloadConfig(1u << 20));
    ManagedList lists(rt, "do.RecordList");
    const class_id_t record = rt.defineClass("do.Record", 1, 120);
    const class_id_t detail = rt.defineClass("do.Detail", 0, 120);
    const class_id_t garbage = rt.defineByteArrayClass("do.Garbage");
    GlobalRoot records(rt.roots(), lists.create());
    std::uint64_t round = 0;
    walkWhileFaulting(
        rt, record, detail, 20,
        [&](Object *rec) { lists.pushFront(records.get(), rec); },
        [&](const std::function<void(Object *)> &visit) {
            std::size_t seen = 0;
            const auto count = [&](Object *rec) {
                visit(rec);
                if (++seen == 2) {
                    HandleScope scope(rt.roots());
                    for (int i = 0; i < 8; ++i) {
                        scope.handle(rt.allocateByteArray(garbage, 48 * 1024));
                        rt.collectNow();
                    }
                }
            };
            if (++round % 2)
                lists.forEach(records.get(), count);
            else
                lists.forEachLimited(records.get(), ~std::size_t{0}, count);
            ASSERT_EQ(seen, lists.size(records.get()));
        });
}

TEST(DiskOffloadTest, FaultsDuringAMapWalkKeepItsBucketArrayInTheHeap)
{
    // The same for the bucket array a map walk reads its entries from.
    Runtime rt(offloadConfig(1u << 20));
    ManagedHashMap maps(rt, "do.RecordMap");
    const class_id_t record = rt.defineClass("do.Record", 1, 120);
    const class_id_t detail = rt.defineClass("do.Detail", 0, 120);
    GlobalRoot records(rt.roots(), maps.create());
    std::uint64_t next_key = 0;
    walkWhileFaulting(
        rt, record, detail, 20,
        [&](Object *rec) { maps.put(records.get(), next_key++, rec); },
        [&](const std::function<void(Object *)> &visit) {
            std::size_t seen = 0;
            maps.forEach(records.get(), [&](std::uint64_t, Object *rec) {
                visit(rec);
                ++seen;
            });
            ASSERT_EQ(seen, maps.size(records.get()));
        });
}

} // namespace
} // namespace lp

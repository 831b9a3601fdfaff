/**
 * @file
 * Unit tests for the segregated-fit heap on its own, driven the way the
 * runtime drives it: small objects are carved from a ThreadAllocCache's
 * chunk leases, large ones go to the LOS, and every collection runs the
 * side-mark protocol (retire leases, claim the live set in the side
 * bitmaps, flip the epoch, which reclaims the rest). Covers alignment,
 * exhaustion, reclamation, chunk reuse, the LOS budget, the size-class
 * table and accounting invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "heap/heap.h"
#include "heap/thread_cache.h"
#include "object/object.h"
#include "util/rng.h"

namespace lp {
namespace {

constexpr class_id_t kCls = 1;

/** One bare heap with one thread cache: the runtime's two allocation paths. */
class BareHeap
{
  public:
    explicit BareHeap(std::size_t capacity) : heap(capacity), cache(heap) {}

    /** Allocate and format an object; nullptr when the heap is full. */
    Object *
    alloc(std::size_t bytes)
    {
        void *mem;
        if (bytes > Heap::kLargeThreshold) {
            mem = heap.allocateLarge(bytes);
        } else {
            mem = cache.allocateFast(bytes);
            if (!mem)
                mem = cache.allocateRefill(bytes);
        }
        return mem ? Object::format(mem, kCls, bytes) : nullptr;
    }

    /**
     * One full collection: claim exactly @p live through the heap's
     * side marks and flip the epoch, which reclaims everything else.
     */
    Heap::FlipResult
    collect(const std::vector<Object *> &live)
    {
        cache.retireAll();
        for (Object *obj : live)
            heap.tryMark(obj);
        return heap.flipMarkEpoch();
    }

    Heap heap;
    ThreadAllocCache cache;
};

TEST(HeapTest, AllocatesAlignedDistinctBlocks)
{
    BareHeap h(1 << 20);
    std::vector<Object *> objs;
    for (int i = 0; i < 100; ++i) {
        Object *obj = h.alloc(48);
        ASSERT_NE(obj, nullptr);
        EXPECT_TRUE(isAligned(reinterpret_cast<word_t>(obj), kWordBytes));
        EXPECT_TRUE(h.heap.contains(obj));
        objs.push_back(obj);
    }
    std::set<Object *> unique(objs.begin(), objs.end());
    EXPECT_EQ(unique.size(), objs.size());
    h.cache.retireAll();
    h.heap.verifyIntegrity();
}

TEST(HeapTest, SizeClassTableMatchesBinarySearch)
{
    Heap heap(1 << 20);
    std::vector<std::uint32_t> sizes;
    for (std::size_t cls = 0; cls < heap.numSizeClasses(); ++cls)
        sizes.push_back(heap.sizeClassBytes(cls));
    ASSERT_TRUE(std::is_sorted(sizes.begin(), sizes.end()));
    ASSERT_EQ(sizes.back(), Heap::kLargeThreshold);
    for (std::size_t bytes = 1; bytes <= Heap::kLargeThreshold; ++bytes) {
        // The smallest class that fits, by the binary search the table
        // replaced.
        const auto it = std::lower_bound(
            sizes.begin(), sizes.end(),
            static_cast<std::uint32_t>(std::max(bytes, Heap::kMinBlockBytes)));
        ASSERT_EQ(heap.sizeClassFor(bytes),
                  static_cast<std::size_t>(it - sizes.begin()))
            << bytes << " bytes";
    }
}

TEST(HeapTest, BlocksDoNotOverlap)
{
    BareHeap h(1 << 20);
    Rng rng(7);
    struct Span { word_t lo, hi; };
    std::vector<Span> spans;
    for (int i = 0; i < 200; ++i) {
        const std::size_t sz = roundUp(24 + rng.nextBelow(500), kWordBytes);
        Object *obj = h.alloc(sz);
        ASSERT_NE(obj, nullptr);
        spans.push_back({reinterpret_cast<word_t>(obj),
                         reinterpret_cast<word_t>(obj) + sz});
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        for (std::size_t j = i + 1; j < spans.size(); ++j) {
            EXPECT_TRUE(spans[i].hi <= spans[j].lo ||
                        spans[j].hi <= spans[i].lo)
                << "blocks " << i << " and " << j << " overlap";
        }
    }
}

TEST(HeapTest, ExhaustionReturnsNull)
{
    BareHeap h(64 * 1024);
    std::size_t got = 0;
    while (h.alloc(1024))
        ++got;
    EXPECT_GT(got, 50u);  // most of the heap should be usable
    EXPECT_EQ(h.alloc(1024), nullptr);
    // A refill that finds no chunk is an allocation that needs help.
    EXPECT_GE(h.heap.stats().failedAllocations, 1u);
    h.cache.retireAll();
    h.heap.verifyIntegrity();
}

TEST(HeapTest, SweepReclaimsUnmarked)
{
    BareHeap h(1 << 20);
    std::vector<Object *> keep;
    std::vector<Object *> drop;
    for (int i = 0; i < 100; ++i) {
        Object *obj = h.alloc(64);
        ASSERT_NE(obj, nullptr);
        (i % 2 == 0 ? keep : drop).push_back(obj);
    }
    // A claim succeeds once per object and collection.
    h.cache.retireAll();
    for (Object *obj : keep) {
        EXPECT_FALSE(h.heap.isMarked(obj));
        EXPECT_TRUE(h.heap.tryMark(obj));
        EXPECT_FALSE(h.heap.tryMark(obj)) << "second claim must fail";
        EXPECT_TRUE(h.heap.isMarked(obj));
    }
    for (Object *obj : drop)
        EXPECT_FALSE(h.heap.isMarked(obj));
    // Half the chunk survives: the flip itself reclaims the other half
    // and keeps the chunk, and clears every mark.
    const Heap::FlipResult flip = h.heap.flipMarkEpoch();
    EXPECT_EQ(flip.freedChunks, 0u);
    EXPECT_EQ(h.heap.stats().objectsFreed, drop.size());
    EXPECT_EQ(h.heap.stats().bytesFreed, drop.size() * 64);
    EXPECT_EQ(flip.liveBytes, keep.size() * 64);
    EXPECT_EQ(flip.liveBytes, h.heap.usedBytes());
    for (Object *obj : keep)
        EXPECT_FALSE(h.heap.isMarked(obj)) << "the flip clears the marks";
    std::set<Object *> seen;
    h.heap.forEachObject([&](Object *o) { seen.insert(o); });
    EXPECT_EQ(seen, std::set<Object *>(keep.begin(), keep.end()));
    h.heap.verifyIntegrity();
}

TEST(HeapTest, SweepCoalescesFreeSpace)
{
    BareHeap h(1 << 20);
    const std::size_t before = h.heap.largestFreeBlock();
    // Fill the heap with small objects that will all die...
    while (h.alloc(64)) {
    }
    EXPECT_LT(h.heap.largestFreeBlock(), 64u);
    // ...then collect: every chunk is fully dead and freed at the flip
    // from metadata alone.
    const Heap::FlipResult flip = h.collect({});
    EXPECT_EQ(flip.freedChunks, h.heap.capacity() / Heap::kChunkBytes);
    EXPECT_EQ(flip.liveBytes, 0u);
    EXPECT_EQ(h.heap.largestFreeBlock(), before);
    EXPECT_EQ(h.heap.usedBytes(), 0u);
}

TEST(HeapTest, ReusesFreedMemory)
{
    BareHeap h(256 * 1024);
    for (int round = 0; round < 10; ++round) {
        std::size_t count = 0;
        while (h.alloc(128))
            ++count;
        EXPECT_GT(count, 1000u);
        h.collect({});
    }
    h.heap.verifyIntegrity();
}

TEST(HeapTest, LargeObjectAllocation)
{
    BareHeap h(4 << 20);
    Object *obj = h.alloc(3 << 20);
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(obj->sizeBytes(), std::size_t{3 << 20});
    // No room for a second one.
    EXPECT_EQ(h.alloc(3 << 20), nullptr);
    // The flip frees the dead large object and its budget.
    const Heap::FlipResult flip = h.collect({});
    EXPECT_EQ(flip.committedBytes, 0u);
    EXPECT_EQ(h.heap.committedBytes(), 0u);
    EXPECT_NE(h.alloc(3 << 20), nullptr);
}

TEST(HeapTest, ForEachObjectVisitsExactlyLiveSet)
{
    BareHeap h(1 << 20);
    std::vector<Object *> keep;
    for (int i = 0; i < 100; ++i) {
        Object *obj = h.alloc(40 + 8 * (i % 5));
        if (i % 2 == 0)
            keep.push_back(obj);
    }
    keep.push_back(h.alloc(Heap::kLargeThreshold + 8));
    h.alloc(Heap::kLargeThreshold + 8); // dies
    h.cache.retireAll();
    for (Object *obj : keep)
        EXPECT_TRUE(h.heap.tryMark(obj));
    EXPECT_TRUE(h.heap.isMarked(keep.back())) << "large objects mark too";
    h.heap.flipMarkEpoch();
    EXPECT_FALSE(h.heap.isMarked(keep.back()));
    std::set<Object *> seen;
    h.heap.forEachObject([&](Object *o) { seen.insert(o); });
    EXPECT_EQ(seen, std::set<Object *>(keep.begin(), keep.end()));
}

TEST(HeapTest, FragmentationSurvivesMixedChurn)
{
    BareHeap h(512 * 1024);
    Rng rng(42);
    std::vector<Object *> live;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 40; ++i) {
            Object *obj = h.alloc(24 + 8 * rng.nextBelow(64));
            if (!obj)
                break;
            live.push_back(obj);
        }
        // Keep a random half alive.
        std::vector<Object *> survivors;
        for (Object *obj : live) {
            if (rng.chance(1, 2))
                survivors.push_back(obj);
        }
        h.collect(survivors);
        h.heap.verifyIntegrity();
        live = std::move(survivors);
    }
}

TEST(HeapTest, LargeObjectSpaceChargesTheSameBudget)
{
    // Large objects live outside the chunk arena but count against
    // capacity: committing everything to the LOS starves the chunks.
    BareHeap h(1 << 20);
    const std::size_t cap = h.heap.capacity();
    const std::size_t big = Heap::kLargeThreshold + 8; // page-rounds small
    std::vector<Object *> large;
    while (Object *obj = h.alloc(big))
        large.push_back(obj);
    EXPECT_GT(large.size() * big, cap / 2);
    EXPECT_LE(h.heap.committedBytes(), cap);
    // The remaining budget is below one chunk, so even a fresh small
    // chunk is unaffordable.
    EXPECT_EQ(h.alloc(64), nullptr);
    h.heap.verifyIntegrity();
    // Everything marked survives one collection, then dies unmarked.
    h.collect(large);
    EXPECT_GT(h.heap.usedBytes(), 0u);
    h.collect({});
    EXPECT_EQ(h.heap.usedBytes(), 0u);
    EXPECT_NE(h.alloc(64), nullptr);
}

TEST(HeapTest, LargeObjectsNeedNoChunkContiguity)
{
    // The LOS must satisfy a big request even when live small objects
    // keep half the chunks committed — the scenario that kills a
    // purely arena-based design (see DESIGN.md).
    BareHeap h(2 << 20);
    std::vector<Object *> pins;
    while (Object *obj = h.alloc(64)) {
        pins.push_back(obj);
        if (h.heap.committedBytes() * 2 > h.heap.capacity())
            break;
    }
    h.collect(pins); // everything survives; chunks stay committed
    // Almost half the budget remains; a 512KB single allocation must fit.
    EXPECT_NE(h.alloc(512 * 1024), nullptr);
}

TEST(HeapTest, LargeObjectContainsAndForEach)
{
    BareHeap h(2 << 20);
    Object *obj = h.alloc(200 * 1024);
    ASSERT_NE(obj, nullptr);
    const auto visits = [&] {
        int seen = 0;
        h.heap.forEachObject([&](Object *o) { seen += o == obj; });
        return seen;
    };
    EXPECT_TRUE(h.heap.contains(obj));
    EXPECT_TRUE(h.heap.contains(reinterpret_cast<char *>(obj) + 199 * 1024));
    EXPECT_EQ(visits(), 1);
    h.collect({obj});
    EXPECT_TRUE(h.heap.contains(obj));
    EXPECT_EQ(visits(), 1);
    h.collect({});
    EXPECT_FALSE(h.heap.contains(obj));
    EXPECT_EQ(visits(), 0);
}

TEST(HeapTest, StatsTrackAllocationsAndFrees)
{
    BareHeap h(128 * 1024);
    for (int i = 0; i < 10; ++i)
        h.alloc(64);
    // Cache tallies reach the heap's stats when the leases retire.
    EXPECT_EQ(h.heap.stats().allocations, 0u);
    h.collect({});
    EXPECT_EQ(h.heap.stats().allocations, 10u);
    EXPECT_EQ(h.heap.stats().bytesAllocated, 640u);
    EXPECT_EQ(h.heap.stats().objectsFreed, 10u);
    EXPECT_EQ(h.heap.stats().bytesFreed, 640u);
    EXPECT_EQ(h.heap.stats().sweeps, 1u);
}

} // namespace
} // namespace lp

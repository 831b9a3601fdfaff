/**
 * @file
 * Stress tests for the thread-local allocation fast path and the
 * parallel chunk sweep (DESIGN.md "Allocation fast path & parallel
 * sweep"). These are the ThreadSanitizer workhorses for the allocator:
 * many mutators carve from chunk leases while budget-triggered
 * collections retire the leases mid-stream, with the heap verifier
 * running in FailFast mode after every single collection so any
 * accounting drift (charge-sum, lease flush, sweep merge) panics the
 * test rather than surviving as a latent counter error.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "vm/handles.h"
#include "vm/runtime.h"

namespace lp {
namespace {

RuntimeConfig
stressConfig(std::size_t heap_bytes)
{
    RuntimeConfig cfg;
    cfg.heapBytes = heap_bytes;
    cfg.verifier.enabled = true;
    cfg.verifier.everyNCollections = 1; // verify after EVERY collection
    cfg.verifier.mode = VerifierMode::FailFast;
    return cfg;
}

// Mixed-size allocation loop shared by the tests below: a sparse
// retained chain (so sweeps find live blocks inside leased-and-retired
// chunks) plus a large-object allocation on a stride (so the LOS path
// interleaves with cache carves).
void
mutatorLoop(Runtime &rt, class_id_t node, class_id_t pad, class_id_t blob,
            int iterations, unsigned seed)
{
    MutatorScope mutator(rt.threads());
    HandleScope scope(rt.roots());
    Handle keep = scope.handle(nullptr);
    for (int i = 0; i < iterations; ++i) {
        Object *obj;
        if ((i + static_cast<int>(seed)) % 97 == 0)
            obj = rt.allocateByteArray(blob, 9000); // > kLargeThreshold
        else if ((i + static_cast<int>(seed)) % 3 == 0)
            obj = rt.allocate(pad);
        else
            obj = rt.allocate(node);
        if (i % 41 == 0 && obj->classId() == node) {
            rt.writeRef(obj, 0, keep.get());
            keep.set(obj);
        }
        if (i % 4096 == 0)
            keep.set(nullptr);
    }
}

TEST(AllocScalingTest, ManyThreadsAllocateWhileGcsFire)
{
    RuntimeConfig cfg = stressConfig(24u << 20);
    Runtime rt(cfg);
    const class_id_t node = rt.defineClass("stress.Node", 1, 40);
    const class_id_t pad = rt.defineClass("stress.Pad", 0, 200);
    const class_id_t blob = rt.defineByteArrayClass("stress.Blob");

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 8; ++t)
        threads.emplace_back(
            [&, t] { mutatorLoop(rt, node, pad, blob, 30000, t); });
    {
        BlockedScope blocked(rt.threads());
        for (auto &th : threads)
            th.join();
    }
    EXPECT_GT(rt.gcStats().collections, 0u)
        << "24MB heap under ~8x30k mixed allocations must have collected";
    // Every one of those collections already ran a FailFast verifier
    // pass; finish with an explicit full pass from this thread.
    EXPECT_TRUE(rt.verifyHeap().clean());
    EXPECT_EQ(rt.heap().leasedChunkCount(), 0u)
        << "verifyHeap() must retire every outstanding chunk lease";
}

TEST(AllocScalingTest, VerifyHeapFromMainWhileMutatorsRun)
{
    RuntimeConfig cfg = stressConfig(24u << 20);
    Runtime rt(cfg);
    const class_id_t node = rt.defineClass("stress.Node2", 1, 40);
    const class_id_t pad = rt.defineClass("stress.Pad2", 0, 200);
    const class_id_t blob = rt.defineByteArrayClass("stress.Blob2");

    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            mutatorLoop(rt, node, pad, blob, 40000, t);
            done.store(true, std::memory_order_release);
        });

    // Interleave stop-the-world verification pauses with the mutators:
    // each pass must see every cache lease retired and exact byte
    // accounting, mid-allocation-storm.
    {
        MutatorScope mutator(rt.threads());
        int passes = 0;
        while (!done.load(std::memory_order_acquire) && passes < 50) {
            EXPECT_TRUE(rt.verifyHeap().clean());
            ++passes;
        }
        EXPECT_GT(passes, 0);
    }
    {
        BlockedScope blocked(rt.threads());
        for (auto &th : threads)
            th.join();
    }
    EXPECT_TRUE(rt.verifyHeap().clean());
}

TEST(AllocScalingTest, StressWithLeakPruningActive)
{
    RuntimeConfig cfg = stressConfig(16u << 20);
    cfg.enableLeakPruning = true; // read barriers + edge table active
    Runtime rt(cfg);
    const class_id_t node = rt.defineClass("stress.PruneNode", 2, 24);
    const class_id_t pad = rt.defineClass("stress.PrunePad", 0, 120);
    const class_id_t blob = rt.defineByteArrayClass("stress.PruneBlob");

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 6; ++t)
        threads.emplace_back([&, t] {
            MutatorScope mutator(rt.threads());
            HandleScope scope(rt.roots());
            Handle keep = scope.handle(nullptr);
            for (int i = 0; i < 25000; ++i) {
                Object *obj = (i + static_cast<int>(t)) % 5 == 0
                                  ? rt.allocate(pad)
                                  : rt.allocate(node);
                if (obj->classId() == node) {
                    rt.writeRef(obj, 0, keep.get());
                    if (i % 31 == 0)
                        keep.set(obj);
                    // Read through the barrier so staleness resets and
                    // edge observation interleave with cache carves.
                    if (i % 7 == 0 && keep.get())
                        rt.readRef(keep.get(), 0);
                }
                if (i % 4096 == 0)
                    keep.set(nullptr);
            }
            (void)blob;
        });
    {
        BlockedScope blocked(rt.threads());
        for (auto &th : threads)
            th.join();
    }
    EXPECT_GT(rt.gcStats().collections, 0u);
    EXPECT_TRUE(rt.verifyHeap().clean());
}

} // namespace
} // namespace lp

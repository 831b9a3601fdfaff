/**
 * @file
 * Unit tests for safepoints and the mutator registry.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "threads/safepoint.h"

namespace lp {
namespace {

/** The registry's mutators allocate from a heap; these tests never do. */
constexpr std::size_t kHeapBytes = 256 * 1024;

TEST(SafepointTest, StopWaitsForMutatorsToPark)
{
    Heap heap(kHeapBytes);
    ThreadRegistry reg(heap);
    reg.registerMutator(); // the "VM" thread

    std::atomic<bool> run{true};
    std::atomic<std::uint64_t> loops{0};
    std::thread mutator([&] {
        MutatorScope scope(reg);
        while (run.load()) {
            reg.pollSafepoint();
            loops.fetch_add(1);
        }
    });

    // Give the mutator a moment to start looping.
    while (loops.load() < 1000)
        std::this_thread::yield();

    reg.stopTheWorld();
    EXPECT_TRUE(reg.worldStopped());
    const auto frozen = loops.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(loops.load(), frozen) << "mutator progressed during the pause";
    reg.resumeTheWorld();

    while (loops.load() == frozen)
        std::this_thread::yield(); // must resume

    run.store(false);
    mutator.join();
    reg.unregisterMutator();
}

TEST(SafepointTest, BlockedThreadsDoNotDelayStop)
{
    Heap heap(kHeapBytes);
    ThreadRegistry reg(heap);
    reg.registerMutator();

    std::atomic<bool> release{false};
    std::thread blocked_thread([&] {
        MutatorScope scope(reg);
        BlockedScope blocked(reg);
        while (!release.load())
            std::this_thread::yield();
    });

    while (reg.mutatorCount() < 2)
        std::this_thread::yield();
    // Even though the other thread never polls, stopping must succeed
    // because it declared itself blocked.
    reg.stopTheWorld();
    reg.resumeTheWorld();

    release.store(true);
    blocked_thread.join();
    reg.unregisterMutator();
}

TEST(SafepointTest, ReentrantRegistrationNests)
{
    Heap heap(kHeapBytes);
    ThreadRegistry reg(heap);
    reg.registerMutator();
    EXPECT_EQ(reg.mutatorCount(), 1u);
    {
        // An inner MutatorScope on an already-registered thread deepens
        // the registration; its destructor must not strip the outer one.
        MutatorScope inner(reg);
        EXPECT_EQ(reg.mutatorCount(), 1u);
    }
    EXPECT_EQ(reg.mutatorCount(), 1u);
    EXPECT_NE(reg.current(), nullptr);
    reg.unregisterMutator();
    EXPECT_EQ(reg.mutatorCount(), 0u);
}

TEST(SafepointTest, ReentrantRegistrationDuringPendingPause)
{
    // Regression test: a thread registered at Runtime construction that
    // opens an explicit MutatorScope while another thread is initiating
    // a stop-the-world pause. registerMutator() must not wait for the
    // pause to end (the pause is waiting for THIS thread to reach a
    // safepoint), or both sides deadlock.
    Heap heap(kHeapBytes);
    ThreadRegistry reg(heap);
    reg.registerMutator(); // outer registration (the "Runtime ctor")

    std::atomic<bool> stopping{false};
    std::atomic<bool> resumed{false};
    std::thread collector([&] {
        stopping.store(true);
        reg.stopTheWorld(); // waits for the main thread to park
        reg.resumeTheWorld();
        resumed.store(true);
    });

    while (!stopping.load())
        std::this_thread::yield();
    {
        // Racing the collector's stop request on purpose: whichever
        // side wins, re-registration must complete without parking...
        MutatorScope inner(reg);
        // ...and polling is the safepoint that lets the pause finish.
        while (!resumed.load())
            reg.pollSafepoint();
        collector.join();
    }
    reg.unregisterMutator();
    EXPECT_EQ(reg.mutatorCount(), 0u);
}

TEST(SafepointTest, RepeatedStopResumeCycles)
{
    Heap heap(kHeapBytes);
    ThreadRegistry reg(heap);
    reg.registerMutator();
    std::atomic<bool> run{true};
    std::thread mutator([&] {
        MutatorScope scope(reg);
        while (run.load())
            reg.pollSafepoint();
    });
    for (int i = 0; i < 100; ++i) {
        reg.stopTheWorld();
        reg.resumeTheWorld();
    }
    run.store(false);
    mutator.join();
    reg.unregisterMutator();
}

} // namespace
} // namespace lp

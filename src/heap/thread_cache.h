/**
 * @file
 * Thread-local allocation caches: the heap's only small-object
 * allocation path.
 *
 * A central heap that serializes every allocation behind a mutex caps
 * allocation throughput at one core no matter how many mutators run.
 * The standard VM answer (MMTk's bump-allocator TLABs, Jikes
 * RVM's per-processor spaces) is to hand each thread a private region
 * it can carve with no synchronization, refilled from the central
 * space in chunk-sized bites. This file is that layer for our chunked
 * segregated-fit heap:
 *
 *  - ThreadAllocCache holds one ChunkLease per size class. The common
 *    allocation takes the lowest zero bit of the leased chunk's in-use
 *    bitmap and sets it directly — no atomics, no locks, and no read
 *    of the dead block it hands out; the chunk is exclusively owned
 *    until retired.
 *  - Each mutator's cache lives in its ThreadRegistry entry
 *    (threads/safepoint.h), the one per-thread record, so the
 *    allocation fast path finds it with the same TLS lookup that finds
 *    the thread's last-allocation root.
 *
 * Consistency protocol (see DESIGN.md "Allocation fast path &
 * sweep"): caches are retired *centrally* at stop-the-world points —
 * the collector's first pause stage (Collector::retireCaches) calls
 * ThreadRegistry::retireAllocCaches() while every owner is parked or
 * blocked, folding carved-block counts back into chunk metadata — and
 * by their owner when it unregisters. Publication is by
 * happens-before through the registry mutex (owner parks, then the
 * collector stops the world), so no per-field synchronization is
 * needed. After the pause each owner finds its leases gone and refills
 * through the runtime's slow path, which is also where GC-trigger
 * accounting (bytes folded into the budget and the staleness clock)
 * happens.
 */

#ifndef LP_HEAP_THREAD_CACHE_H
#define LP_HEAP_THREAD_CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "heap/heap.h"

namespace lp {

/**
 * Per-thread allocation state: one chunk lease per size class plus
 * the allocation tallies not yet folded into shared counters. All
 * methods are owner-thread-only except when the world is stopped
 * (ThreadRegistry::retireAllocCaches runs retireAll() from the
 * collecting thread).
 */
class ThreadAllocCache
{
  public:
    explicit ThreadAllocCache(Heap &heap)
        : heap_(heap), leases_(heap.numSizeClasses())
    {}

    ~ThreadAllocCache() { retireAll(); }

    ThreadAllocCache(const ThreadAllocCache &) = delete;
    ThreadAllocCache &operator=(const ThreadAllocCache &) = delete;

    /**
     * Lock-free fast path: carve a block from the existing lease of
     * the right size class. Returns nullptr when the lease is absent
     * or exhausted — the caller's cue to take the slow path (which
     * refills via allocateRefill under the allocation lock).
     */
    void *
    allocateFast(std::size_t bytes)
    {
        ChunkLease &lease = leases_[heap_.sizeClassFor(bytes)];
        void *mem = lease.valid() ? carve(lease) : nullptr;
        if (mem) [[likely]]
            noteAllocated(bytes, lease.blockBytes);
        return mem;
    }

    /**
     * Slow-path refill: retire the exhausted lease, lease a fresh
     * chunk of the class, and carve from it. Returns nullptr when the
     * heap has no chunk to lease (time to collect). Call with the
     * runtime's allocation lock held, never from a signal-free fast
     * path — this is where GC triggering hooks in.
     */
    void *allocateRefill(std::size_t bytes);

    /**
     * Drain the bytes allocated since the last drain (GC-trigger and
     * staleness-clock accounting; the runtime folds them into its
     * budget counters under the allocation lock).
     */
    std::uint64_t
    takeTriggerBytes()
    {
        const std::uint64_t t = trigger_bytes_;
        trigger_bytes_ = 0;
        return t;
    }

    /**
     * Retire every lease back to the heap and flush pending allocation
     * stats. Returns the drained trigger bytes. Called by the owner
     * (unregistration, destruction) or by the collecting thread at
     * stop-the-world.
     */
    std::uint64_t retireAll();

  private:
    void *carve(ChunkLease &lease);

    void
    noteAllocated(std::size_t requested, std::uint32_t block_bytes)
    {
        trigger_bytes_ += block_bytes;
        ++pending_allocs_;
        pending_alloc_bytes_ += requested;
    }

    void flushStats();

    Heap &heap_;
    std::vector<ChunkLease> leases_;   //!< indexed by size class
    std::uint64_t trigger_bytes_ = 0;  //!< undrained GC-trigger bytes
    std::uint64_t pending_allocs_ = 0; //!< HeapStats not yet flushed
    std::uint64_t pending_alloc_bytes_ = 0;
};

} // namespace lp

#endif // LP_HEAP_THREAD_CACHE_H

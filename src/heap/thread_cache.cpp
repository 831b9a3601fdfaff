#include "heap/thread_cache.h"

#include <bit>

#include "util/logging.h"

namespace lp {

void *
ThreadAllocCache::carve(ChunkLease &lease)
{
    if (lease.allocated == lease.room)
        return nullptr;
    // Take the lowest free block at or past the cursor. Every word
    // below the cursor is full, and the room count guarantees a free
    // block below numBlocks, so the zero bits past numBlocks in the
    // last word are never reached. Exclusive chunk ownership makes the
    // bitmap update a plain store: nobody else reads or writes the
    // leased chunk's bitmap until retire.
    std::uint64_t free_bits;
    while ((free_bits = ~lease.inUse[lease.word]) == 0)
        ++lease.word;
    const std::uint64_t lowest = free_bits & (~free_bits + 1);
    lease.inUse[lease.word] |= lowest;
    ++lease.allocated;
    const std::size_t block = std::size_t{lease.word} * 64 +
                              static_cast<std::size_t>(std::countr_zero(lowest));
    return lease.base + block * lease.blockBytes;
}

void *
ThreadAllocCache::allocateRefill(std::size_t bytes)
{
    const std::size_t cls = heap_.sizeClassFor(bytes);
    ChunkLease &lease = leases_[cls];
    heap_.retireChunk(lease);
    flushStats();
    if (!heap_.leaseChunk(cls, lease))
        return nullptr;
    void *mem = carve(lease);
    LP_ASSERT(mem, "fresh chunk lease has no carvable block");
    noteAllocated(bytes, lease.blockBytes);
    return mem;
}

std::uint64_t
ThreadAllocCache::retireAll()
{
    for (ChunkLease &lease : leases_)
        heap_.retireChunk(lease);
    flushStats();
    return takeTriggerBytes();
}

void
ThreadAllocCache::flushStats()
{
    heap_.noteCacheAllocations(pending_allocs_, pending_alloc_bytes_);
    pending_allocs_ = 0;
    pending_alloc_bytes_ = 0;
}

} // namespace lp

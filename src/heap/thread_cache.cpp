#include "heap/thread_cache.h"

#include "util/logging.h"

namespace lp {

void *
ThreadAllocCache::carve(ChunkLease &lease)
{
    std::int32_t block;
    if (lease.freeHead >= 0) {
        block = lease.freeHead;
        // The freed block's first word chains to the next free one
        // (stored as index+1 so 0 means "end").
        lease.freeHead =
            static_cast<std::int32_t>(*reinterpret_cast<word_t *>(
                lease.base +
                static_cast<std::size_t>(block) * lease.blockBytes)) -
            1;
    } else if (lease.bump < lease.numBlocks) {
        block = static_cast<std::int32_t>(lease.bump++);
    } else {
        return nullptr;
    }
    // Exclusive chunk ownership makes this a plain store: nobody else
    // reads or writes the leased chunk's bitmap until retire.
    lease.inUse[static_cast<std::size_t>(block) / 64] |=
        std::uint64_t{1} << (static_cast<std::size_t>(block) % 64);
    ++lease.allocated;
    return lease.base + static_cast<std::size_t>(block) * lease.blockBytes;
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

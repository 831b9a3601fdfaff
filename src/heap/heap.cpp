#include "heap/heap.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace lp {

std::vector<std::uint32_t>
Heap::buildSizeClasses()
{
    // Fine-grained classes (8-byte steps) up to 128 bytes, 32-byte
    // steps to 512, then ~25% geometric growth rounded to 64 bytes,
    // capped at the large-object threshold. Worst-case internal
    // fragmentation ~25%; a modest class count keeps the one-chunk-
    // per-active-class overhead small in little heaps.
    std::vector<std::uint32_t> sizes;
    for (std::size_t s = kMinBlockBytes; s <= 128; s += 8)
        sizes.push_back(static_cast<std::uint32_t>(s));
    for (std::size_t s = 160; s <= 512; s += 32)
        sizes.push_back(static_cast<std::uint32_t>(s));
    std::size_t s = 512;
    while (true) {
        s = roundUp(s + s / 4, 64);
        if (s >= kLargeThreshold) {
            sizes.push_back(static_cast<std::uint32_t>(kLargeThreshold));
            break;
        }
        sizes.push_back(static_cast<std::uint32_t>(s));
    }
    return sizes;
}

Heap::Heap(std::size_t capacity)
    : num_chunks_(std::max<std::size_t>(capacity / kChunkBytes, 1)),
      storage_(new unsigned char[num_chunks_ * kChunkBytes + kChunkBytes]),
      class_sizes_(buildSizeClasses()),
      partial_(class_sizes_.size()),
      pending_(class_sizes_.size()),
      chunks_(num_chunks_),
      marked_bytes_(new std::atomic<std::uint32_t>[num_chunks_])
{
    // Align the usable arena to a chunk-ish boundary (word alignment
    // is all objects need; chunk alignment simplifies nothing here, so
    // just word-align).
    arena_base_ = roundUp(reinterpret_cast<word_t>(storage_.get()), kWordBytes);
    free_chunks_.store(num_chunks_, std::memory_order_relaxed);
    for (std::size_t c = 0; c < num_chunks_; ++c)
        marked_bytes_[c].store(0, std::memory_order_relaxed);
}

Heap::~Heap() = default;

unsigned char *
Heap::chunkBase(std::size_t chunk) const
{
    return reinterpret_cast<unsigned char *>(arena_base_ + chunk * kChunkBytes);
}

bool
Heap::contains(const void *p) const
{
    const auto a = reinterpret_cast<word_t>(p);
    if (a >= arena_base_ && a < arena_base_ + capacity())
        return true;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const LargeAlloc &alloc : large_objects_) {
        const auto base = reinterpret_cast<word_t>(alloc.object);
        if (a >= base && a < base + alloc.bytes)
            return true;
    }
    return false;
}

std::size_t
Heap::sizeClassFor(std::size_t bytes) const
{
    // Binary search the ordered class table for the smallest class
    // that fits.
    const auto it = std::lower_bound(
        class_sizes_.begin(), class_sizes_.end(),
        static_cast<std::uint32_t>(std::max(bytes, kMinBlockBytes)));
    LP_ASSERT(it != class_sizes_.end(), "size not covered by classes");
    return static_cast<std::size_t>(it - class_sizes_.begin());
}

std::size_t
Heap::takeFreeChunkLocked()
{
    // Dead large objects awaiting a lazy sweep still count against the
    // committed budget; reconcile the LOS first so lazy sweeping never
    // fails (or collects) where an eager sweep would have succeeded.
    sweepLosLocked();
    // The large-object space draws on the same byte budget, so a free
    // chunk may exist yet be unaffordable.
    if (free_chunks_.load(std::memory_order_relaxed) == 0 ||
        committedBytes() + kChunkBytes > capacity())
        return npos;
    for (std::size_t i = 0; i < num_chunks_; ++i) {
        if (chunks_[i].kind == ChunkKind::Free)
            return i;
    }
    return npos;
}

void
Heap::commissionChunkLocked(std::size_t chunk, std::size_t cls)
{
    ChunkInfo &info = chunks_[chunk];
    const std::uint32_t block_bytes = class_sizes_[cls];
    info.kind = ChunkKind::Small;
    info.sizeClass = static_cast<std::uint16_t>(cls);
    info.blockBytes = block_bytes;
    info.numBlocks = static_cast<std::uint32_t>(kChunkBytes / block_bytes);
    info.liveBlocks = 0;
    info.bump = 0;
    info.freeHead = -1;
    info.inUse.assign((info.numBlocks + 63) / 64, 0);
    info.leased = false;
    info.sweptEpoch = mark_epoch_.load(std::memory_order_relaxed);
    free_chunks_.fetch_sub(1, std::memory_order_relaxed);
}

void *
Heap::allocateLargeLocked(std::size_t bytes)
{
    // Reconcile dead large objects first: their committed bytes must
    // never make a budget check fail (or trigger a collection) that an
    // eager sweep would have passed.
    sweepLosLocked();
    // Charge page-rounded bytes against the heap budget; the backing
    // memory is a fresh host allocation (MMTk-style LOS: virtual
    // contiguity is free, only total bytes are bounded).
    const std::size_t charged = roundUp(bytes, 4096);
    if (committedBytes() + charged > capacity())
        return nullptr;
    LargeAlloc alloc;
    alloc.storage.reset(new (std::nothrow) unsigned char[charged + kWordBytes]);
    if (!alloc.storage)
        return nullptr;
    alloc.bytes = charged;
    alloc.object = reinterpret_cast<Object *>(
        roundUp(reinterpret_cast<word_t>(alloc.storage.get()), kWordBytes));
    // The entry is visible to lazy LOS sweeps the moment it joins the
    // index, but the caller formats the header only after the heap
    // lock drops: stamp a live-parity status word now so a concurrent
    // sweep cannot misread uninitialized memory as a dead mark.
    *reinterpret_cast<word_t *>(alloc.object) =
        static_cast<word_t>(markParity()) << header_bits::kMarkBit;
    large_objects_.push_back(std::move(alloc));
    large_bytes_.fetch_add(charged, std::memory_order_relaxed);
    used_bytes_.fetch_add(charged, std::memory_order_relaxed);
    return large_objects_.back().object;
}

void *
Heap::allocateLarge(std::size_t bytes)
{
    LP_ASSERT(bytes > kLargeThreshold,
              "small objects are allocated through ThreadAllocCache");
    std::lock_guard<std::mutex> lock(mutex_);
    void *mem = allocateLargeLocked(bytes);
    if (!mem) {
        ++stats_.failedAllocations;
        return nullptr;
    }
    ++stats_.allocations;
    stats_.bytesAllocated += bytes;
    return mem;
}

bool
Heap::leaseChunk(std::size_t size_class, ChunkLease &lease)
{
    std::unique_lock<std::mutex> lock(mutex_);
    std::size_t chunk = npos;
    if (!partial_[size_class].empty()) {
        // Partial lists hold only unleased chunks with room: nothing
        // carves a chunk without leasing it off the list first.
        chunk = partial_[size_class].back();
        partial_[size_class].pop_back();
        LP_ASSERT(chunks_[chunk].hasRoom(), "full chunk on a partial list");
    }
    while (chunk == npos) {
        // Sweep pending chunks of this class on first touch; a swept
        // chunk may turn out fully live (no space), so keep looking.
        const std::size_t pend = takePendingChunkLocked(size_class);
        if (pend == npos)
            break;
        if (chunks_[pend].hasRoom())
            chunk = pend;
    }
    if (chunk == npos) {
        chunk = takeFreeChunkLocked();
        if (chunk == npos) {
            ++stats_.failedAllocations;
            return false;
        }
        commissionChunkLocked(chunk, size_class);
    }

    ChunkInfo &info = chunks_[chunk];
    info.leased = true;
    ++leased_chunks_;
    lease.chunkIndex = chunk;
    lease.base = chunkBase(chunk);
    lease.inUse = info.inUse.data();
    lease.blockBytes = info.blockBytes;
    lease.numBlocks = info.numBlocks;
    lease.bump = info.bump;
    lease.freeHead = info.freeHead;
    lease.allocated = 0;
    lock.unlock();
    telInstant(telemetry_, TracePhase::CacheRefill,
               static_cast<std::uint32_t>(size_class),
               static_cast<std::uint64_t>(lease.numBlocks) * lease.blockBytes);
    return true;
}

void
Heap::retireChunk(ChunkLease &lease)
{
    if (!lease.valid())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    ChunkInfo &info = chunks_[lease.chunkIndex];
    LP_ASSERT(info.leased, "retiring a chunk that is not leased");
    info.bump = lease.bump;
    info.freeHead = lease.freeHead;
    info.liveBlocks += lease.allocated;
    info.leased = false;
    --leased_chunks_;
    used_bytes_.fetch_add(
        static_cast<std::size_t>(lease.allocated) * lease.blockBytes,
        std::memory_order_relaxed);

    if (info.liveBlocks == 0 && info.bump == 0) {
        // Fresh chunk the cache never carved from: back to the pool.
        makeChunkFree(lease.chunkIndex);
    } else if (info.hasRoom()) {
        partial_[info.sizeClass].push_back(
            static_cast<std::uint32_t>(lease.chunkIndex));
    }
    lease = ChunkLease{};
}

void
Heap::noteCacheAllocations(std::uint64_t count, std::uint64_t bytes)
{
    if (count == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.allocations += count;
    stats_.bytesAllocated += bytes;
}

std::size_t
Heap::leasedChunkCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return leased_chunks_;
}

void
Heap::makeChunkFree(std::size_t chunk)
{
    ChunkInfo &info = chunks_[chunk];
    info = ChunkInfo{};
    free_chunks_.fetch_add(1, std::memory_order_relaxed);
}

// --- epoch-parity collection protocol ---------------------------------------

void
Heap::beginMark()
{
    std::lock_guard<std::mutex> lock(mutex_);
    LP_ASSERT(!sweepPending(),
              "mark phase started with pending sweeps (run finishSweep "
              "first: one parity bit cannot span two flips)");
    for (std::size_t c = 0; c < num_chunks_; ++c)
        marked_bytes_[c].store(0, std::memory_order_relaxed);
    marked_large_bytes_.store(0, std::memory_order_relaxed);
}

void
Heap::noteMarked(const Object *obj)
{
    const auto a = reinterpret_cast<word_t>(obj);
    if (a >= arena_base_ && a < arena_base_ + capacity()) {
        const std::size_t c = (a - arena_base_) / kChunkBytes;
        std::atomic<std::uint32_t> &tally = marked_bytes_[c];
        tally.store(tally.load(std::memory_order_relaxed) +
                        chunks_[c].blockBytes,
                    std::memory_order_relaxed);
        return;
    }
    // LOS: charge exactly what the allocator charged (page-rounded).
    marked_large_bytes_.store(
        marked_large_bytes_.load(std::memory_order_relaxed) +
            roundUp(obj->sizeBytes(), 4096),
        std::memory_order_relaxed);
}

Heap::FlipResult
Heap::flipMarkEpoch()
{
    std::lock_guard<std::mutex> lock(mutex_);
    LP_ASSERT(leased_chunks_ == 0,
              "epoch flip with outstanding chunk leases (retire at safepoint)");
    ++stats_.sweeps;

    const std::uint64_t old_epoch = mark_epoch_.load(std::memory_order_relaxed);
    const std::uint64_t new_epoch = old_epoch + 1;
    const unsigned parity = static_cast<unsigned>(new_epoch & 1);

    for (auto &list : partial_)
        list.clear();

    std::size_t live_small = 0;
    std::size_t pending = 0;
    for (std::size_t c = 0; c < num_chunks_; ++c) {
        ChunkInfo &info = chunks_[c];
        if (info.kind != ChunkKind::Small)
            continue;
        LP_ASSERT(info.sweptEpoch == old_epoch,
                  "epoch flip over an unswept chunk (sweep-completeness "
                  "rule violated)");
        const std::size_t marked = marked_bytes_[c].load(std::memory_order_relaxed);
        const std::size_t allocated =
            static_cast<std::size_t>(info.liveBlocks) * info.blockBytes;
        live_small += marked;
        if (marked == 0) {
            // Every allocated block is dead: reclaim the whole chunk
            // from metadata alone, no header walks.
            stats_.objectsFreed += info.liveBlocks;
            stats_.bytesFreed += allocated;
            used_bytes_.fetch_sub(allocated, std::memory_order_relaxed);
            makeChunkFree(c);
            continue;
        }
        if (marked == allocated) {
            // Fully live: nothing for a sweep to find.
            info.sweptEpoch = new_epoch;
            marked_bytes_[c].store(0, std::memory_order_relaxed);
            if (info.hasRoom())
                partial_[info.sizeClass].push_back(
                    static_cast<std::uint32_t>(c));
            continue;
        }
        // Mixed chunk: queue for a lazy sweep on first allocation
        // touch (or the next finishSweep). marked_bytes_ keeps the
        // mark-time total so the sweep can cross-check against it.
        pending_[info.sizeClass].push_back(static_cast<std::uint32_t>(c));
        ++pending;
    }

    std::size_t live_large = 0;
    bool any_large_dead = false;
    for (const LargeAlloc &alloc : large_objects_) {
        if (alloc.object->markedFor(parity))
            live_large += alloc.bytes;
        else
            any_large_dead = true;
    }
    LP_ASSERT(live_large == marked_large_bytes_.load(std::memory_order_relaxed),
              "LOS mark-time byte accounting drift (a marker bypassed "
              "noteMarked)");

    mark_epoch_.store(new_epoch, std::memory_order_relaxed);
    pending_chunks_.store(pending, std::memory_order_relaxed);
    if (any_large_dead)
        los_pending_.store(true, std::memory_order_relaxed);
    else
        los_swept_epoch_ = new_epoch;

    FlipResult result;
    result.liveBytes = live_small + live_large;
    // Dead-but-unswept large objects are excluded: committed space as
    // an eager sweep would have left it, so fullness() decisions are
    // mode-independent.
    result.committedBytes =
        (num_chunks_ - free_chunks_.load(std::memory_order_relaxed)) *
            kChunkBytes +
        live_large;
    result.pendingChunks = pending;
    return result;
}

void
Heap::sweepChunkImpl(std::size_t chunk, SweepTally &tally)
{
    ChunkInfo &info = chunks_[chunk];
    const std::uint64_t epoch = mark_epoch_.load(std::memory_order_relaxed);
    const unsigned parity = static_cast<unsigned>(epoch & 1);
    unsigned char *base = chunkBase(chunk);
    std::size_t live_bytes = 0;
    for (std::uint32_t b = 0; b < info.bump; ++b) {
        const std::uint64_t bit = std::uint64_t{1} << (b % 64);
        if (!(info.inUse[b / 64] & bit))
            continue;
        auto *obj = reinterpret_cast<Object *>(
            base + static_cast<std::size_t>(b) * info.blockBytes);
        if (obj->markedFor(parity)) {
            live_bytes += info.blockBytes;
            continue;
        }
        info.inUse[b / 64] &= ~bit;
        --info.liveBlocks;
        *reinterpret_cast<word_t *>(
            base + static_cast<std::size_t>(b) * info.blockBytes) =
            static_cast<word_t>(info.freeHead + 1);
        info.freeHead = static_cast<std::int32_t>(b);
        ++tally.objectsFreed;
        tally.bytesFreed += info.blockBytes;
    }
    info.sweptEpoch = epoch;
    LP_ASSERT(live_bytes == marked_bytes_[chunk].load(std::memory_order_relaxed),
              "lazy sweep live bytes disagree with mark-time accounting");
    marked_bytes_[chunk].store(0, std::memory_order_relaxed);
}

std::size_t
Heap::takePendingChunkLocked(std::size_t cls)
{
    if (pending_[cls].empty())
        return npos;
    const std::size_t chunk = pending_[cls].back();
    pending_[cls].pop_back();
    pending_chunks_.fetch_sub(1, std::memory_order_relaxed);
    TelemetrySpan span(telemetry_, TracePhase::LazySweep);
    SweepTally tally;
    sweepChunkImpl(chunk, tally);
    used_bytes_.fetch_sub(tally.bytesFreed, std::memory_order_relaxed);
    stats_.objectsFreed += tally.objectsFreed;
    stats_.bytesFreed += tally.bytesFreed;
    span.setArgs(static_cast<std::uint32_t>(chunk), tally.bytesFreed);
    return chunk;
}

std::size_t
Heap::sweepLosLocked()
{
    if (!los_pending_.load(std::memory_order_relaxed))
        return 0;
    const std::uint64_t epoch = mark_epoch_.load(std::memory_order_relaxed);
    const unsigned parity = static_cast<unsigned>(epoch & 1);
    TelemetrySpan span(telemetry_, TracePhase::LazySweep);
    std::uint64_t freed = 0;
    std::size_t freed_bytes = 0;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < large_objects_.size(); ++i) {
        LargeAlloc &alloc = large_objects_[i];
        if (alloc.object->markedFor(parity)) {
            if (keep != i)
                large_objects_[keep] = std::move(alloc);
            ++keep;
            continue;
        }
        ++freed;
        freed_bytes += alloc.bytes;
        large_bytes_.fetch_sub(alloc.bytes, std::memory_order_relaxed);
        used_bytes_.fetch_sub(alloc.bytes, std::memory_order_relaxed);
    }
    large_objects_.resize(keep);
    stats_.objectsFreed += freed;
    stats_.bytesFreed += freed_bytes;
    los_swept_epoch_ = epoch;
    los_pending_.store(false, std::memory_order_relaxed);
    span.setArgs(static_cast<std::uint32_t>(freed), freed_bytes);
    return freed_bytes;
}

std::size_t
Heap::finishSweep(bool in_pause)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!sweepPending())
        return 0;
    TelemetrySpan span(telemetry_, TracePhase::FinishSweep,
                       /*gc_track=*/in_pause);

    std::vector<std::uint32_t> work;
    for (auto &list : pending_) {
        work.insert(work.end(), list.begin(), list.end());
        list.clear();
    }
    pending_chunks_.store(0, std::memory_order_relaxed);

    SweepTally total;
    for (std::uint32_t c : work)
        sweepChunkImpl(c, total);
    used_bytes_.fetch_sub(total.bytesFreed, std::memory_order_relaxed);
    stats_.objectsFreed += total.objectsFreed;
    stats_.bytesFreed += total.bytesFreed;

    // Disposition: every swept chunk kept at least one live block (a
    // fully dead chunk was freed at the flip), so none can go back to
    // the free pool; list the ones with room.
    for (std::uint32_t c : work) {
        ChunkInfo &info = chunks_[c];
        LP_ASSERT(info.liveBlocks > 0,
                  "pending chunk swept down to empty (flip should have "
                  "freed it)");
        if (info.hasRoom())
            partial_[info.sizeClass].push_back(c);
    }

    const std::size_t los_freed = sweepLosLocked();

    // With everything reconciled (and no leases to hide carves), the
    // chunk metadata and the byte counter must agree exactly.
    if (leased_chunks_ == 0) {
        std::size_t metadata_live = large_bytes_.load(std::memory_order_relaxed);
        for (std::size_t c = 0; c < num_chunks_; ++c) {
            const ChunkInfo &info = chunks_[c];
            if (info.kind == ChunkKind::Small)
                metadata_live +=
                    static_cast<std::size_t>(info.liveBlocks) * info.blockBytes;
        }
        LP_ASSERT(metadata_live == used_bytes_.load(std::memory_order_relaxed),
                  "finishSweep live-bytes drift vs chunk metadata");
    }

    const std::size_t freed_bytes = total.bytesFreed + los_freed;
    span.setArgs(static_cast<std::uint32_t>(work.size()), freed_bytes);
    return freed_bytes;
}

Heap::ObjectSweepState
Heap::sweepStateOf(const Object *obj) const
{
    const std::uint64_t epoch = mark_epoch_.load(std::memory_order_relaxed);
    const auto a = reinterpret_cast<word_t>(obj);
    if (a >= arena_base_ && a < arena_base_ + capacity()) {
        const std::size_t c = (a - arena_base_) / kChunkBytes;
        if (chunks_[c].sweptEpoch == epoch)
            return ObjectSweepState::Swept;
    } else if (los_swept_epoch_ == epoch) {
        return ObjectSweepState::Swept;
    }
    return obj->markedFor(markParity()) ? ObjectSweepState::PendingLive
                                        : ObjectSweepState::PendingDead;
}

void
Heap::forEachObject(FunctionRef<void(Object *)> fn) const
{
    forEachObjectWithCharge([&](Object *obj, std::size_t) { fn(obj); });
}

void
Heap::forEachObjectWithCharge(
    FunctionRef<void(Object *, std::size_t)> fn) const
{
    for (const LargeAlloc &alloc : large_objects_)
        fn(alloc.object, alloc.bytes);
    for (std::size_t c = 0; c < num_chunks_; ++c) {
        const ChunkInfo &info = chunks_[c];
        if (info.kind != ChunkKind::Small)
            continue;
        // A leased chunk's bump cursor lives in the lease, so the
        // recorded one is stale; the bitmap is authoritative. Walk all
        // blocks (bits never appear beyond the true cursor).
        const std::uint32_t limit = info.leased ? info.numBlocks : info.bump;
        for (std::uint32_t b = 0; b < limit; ++b) {
            if (info.inUse[b / 64] & (std::uint64_t{1} << (b % 64))) {
                fn(reinterpret_cast<Object *>(
                       chunkBase(c) +
                       static_cast<std::size_t>(b) * info.blockBytes),
                   info.blockBytes);
            }
        }
    }
}

std::size_t
Heap::largestFreeBlock() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // The LOS can satisfy any request up to the remaining byte budget
    // (rounded down to page granularity).
    const std::size_t budget = capacity() - committedBytes();
    std::size_t best = roundDown(budget, 4096);
    // A small block may still be available even with no budget for
    // fresh chunks or pages.
    if (best == 0) {
        for (std::size_t cls = class_sizes_.size(); cls-- > 0;) {
            if (!partial_[cls].empty()) {
                best = class_sizes_[cls];
                break;
            }
        }
    }
    return best;
}

void
Heap::verifyIntegrity() const
{
    checkIntegrity([](const std::string &msg) { panic(msg); });
}

void
Heap::checkIntegrity(
    FunctionRef<void(const std::string &)> report) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t used = 0;
    std::size_t free_seen = 0;
    std::size_t large_seen = 0;
    bool leases = leased_chunks_ != 0;
    for (const LargeAlloc &alloc : large_objects_) {
        if (alloc.bytes == 0 || !alloc.object)
            report("bad LOS entry");
        large_seen += alloc.bytes;
        used += alloc.bytes;
    }
    if (large_seen != large_bytes_.load(std::memory_order_relaxed))
        report(detail::concat("LOS byte accounting drift: walked ", large_seen,
                              ", recorded ",
                              large_bytes_.load(std::memory_order_relaxed)));
    for (std::size_t c = 0; c < num_chunks_; ++c) {
        const ChunkInfo &info = chunks_[c];
        switch (info.kind) {
          case ChunkKind::Free:
            ++free_seen;
            break;
          case ChunkKind::Small: {
            std::uint32_t bits = 0;
            for (std::uint32_t b = 0; b < info.numBlocks; ++b) {
                if (info.inUse[b / 64] & (std::uint64_t{1} << (b % 64))) {
                    ++bits;
                    if (!info.leased && b >= info.bump)
                        report(detail::concat("chunk ", c,
                                              ": in-use bit beyond bump"));
                }
            }
            if (info.leased) {
                // The owning cache has carved an unknown number of
                // blocks past the flushed counters; the bitmap can
                // only lead them.
                if (bits < info.liveBlocks)
                    report(detail::concat(
                        "leased chunk ", c, ": bitmap (", bits,
                        " bits) behind flushed liveBlocks (",
                        info.liveBlocks, ")"));
                used += static_cast<std::size_t>(bits) * info.blockBytes;
            } else {
                if (bits != info.liveBlocks)
                    report(detail::concat("chunk ", c, ": liveBlocks drift (",
                                          bits, " bits vs ", info.liveBlocks,
                                          ")"));
                used +=
                    static_cast<std::size_t>(info.liveBlocks) * info.blockBytes;
            }
            break;
          }
        }
    }
    if (free_seen != free_chunks_.load(std::memory_order_relaxed))
        report(detail::concat("free chunk count drift: walked ", free_seen,
                              ", recorded ",
                              free_chunks_.load(std::memory_order_relaxed)));
    const std::size_t recorded = used_bytes_.load(std::memory_order_relaxed);
    if (leases) {
        // Walked bitmaps include carves not yet folded into the
        // counter; the counter can lag but never lead.
        if (used < recorded)
            report(detail::concat(
                "used-bytes accounting drift under leases: walked ", used,
                " < recorded ", recorded));
    } else if (used != recorded) {
        report(detail::concat("used-bytes accounting drift: walked ", used,
                              ", recorded ", recorded));
    }
}

} // namespace lp

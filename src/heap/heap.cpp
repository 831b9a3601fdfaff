#include "heap/heap.h"

#include <algorithm>
#include <bit>
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
      class_of_step_(kLargeThreshold / kWordBytes + 1),
      partial_(class_sizes_.size()),
      chunks_(num_chunks_),
      bits_(new ChunkBits[num_chunks_]())
{
    // Align the usable arena to a chunk-ish boundary (word alignment
    // is all objects need; chunk alignment simplifies nothing here, so
    // just word-align).
    arena_base_ = roundUp(reinterpret_cast<word_t>(storage_.get()), kWordBytes);
    free_chunks_.store(num_chunks_, std::memory_order_relaxed);
    LP_ASSERT(class_sizes_.size() <= 256, "size class ids must fit a byte");
    std::size_t cls = 0;
    for (std::size_t step = 0; step < class_of_step_.size(); ++step) {
        while (class_sizes_[cls] < std::max(step * kWordBytes, kMinBlockBytes))
            ++cls;
        class_of_step_[step] = static_cast<std::uint8_t>(cls);
    }
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
Heap::takeFreeChunkLocked()
{
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
    info.leased = false;
    // Free chunks keep zeroed bitmaps, so only the reciprocal is new.
    bits_[chunk].blockRecip = static_cast<std::uint32_t>(
        ((std::uint64_t{1} << 32) + block_bytes - 1) / block_bytes);
    free_chunks_.fetch_sub(1, std::memory_order_relaxed);
}

word_t &
Heap::largeMark(const Object *obj)
{
    return reinterpret_cast<word_t *>(const_cast<Object *>(obj))[-1];
}

bool
Heap::tryMarkLarge(const Object *obj)
{
    word_t &mark = largeMark(obj);
    if (mark)
        return false;
    mark = 1;
    return true;
}

bool
Heap::isMarked(const Object *obj) const
{
    const word_t off = reinterpret_cast<word_t>(obj) - arena_base_;
    if (off >= capacity())
        return largeMark(obj) != 0;
    const ChunkBits &bits = bits_[off / kChunkBytes];
    const std::size_t block = blockIndex(bits, off);
    return (bits.mark[block / 64] >> (block % 64)) & 1;
}

void *
Heap::allocateLargeLocked(std::size_t bytes)
{
    // Charge page-rounded bytes against the heap budget; the backing
    // memory is a fresh host allocation (MMTk-style LOS: virtual
    // contiguity is free, only total bytes are bounded).
    const std::size_t charged = roundUp(bytes, 4096);
    if (committedBytes() + charged > capacity())
        return nullptr;
    LargeAlloc alloc;
    // One word of alignment slack, then the side mark word in front of
    // the object.
    alloc.storage.reset(
        new (std::nothrow) unsigned char[charged + 2 * kWordBytes]);
    if (!alloc.storage)
        return nullptr;
    alloc.bytes = charged;
    alloc.object = reinterpret_cast<Object *>(roundUp(
        reinterpret_cast<word_t>(alloc.storage.get()) + kWordBytes,
        kWordBytes));
    largeMark(alloc.object) = 0;
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
    } else {
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
    lease.inUse = bits_[chunk].inUse;
    lease.blockBytes = info.blockBytes;
    lease.room = info.numBlocks - info.liveBlocks;
    lease.word = 0;
    lease.allocated = 0;
    const std::uint64_t chunk_bytes =
        static_cast<std::uint64_t>(info.numBlocks) * info.blockBytes;
    lock.unlock();
    telInstant(telemetry_, TracePhase::CacheRefill,
               static_cast<std::uint32_t>(size_class), chunk_bytes);
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
    info.liveBlocks += lease.allocated;
    info.leased = false;
    --leased_chunks_;
    used_bytes_.fetch_add(
        static_cast<std::size_t>(lease.allocated) * lease.blockBytes,
        std::memory_order_relaxed);

    if (info.liveBlocks == 0) {
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
    chunks_[chunk] = ChunkInfo{};
    bits_[chunk] = ChunkBits{};
    free_chunks_.fetch_add(1, std::memory_order_relaxed);
}

// --- side-mark collection protocol ------------------------------------------

Heap::FlipResult
Heap::flipMarkEpoch()
{
    std::lock_guard<std::mutex> lock(mutex_);
    LP_ASSERT(leased_chunks_ == 0,
              "epoch flip with outstanding chunk leases (retire at safepoint)");
    ++stats_.sweeps;

    // Rebuild every partial list in lease order (flipMarkEpoch's
    // contract): mixed chunks are pushed as they are met, in ascending
    // index, and the fully live chunks with room go on top of them
    // afterwards, so the highest-indexed of those is leased first.
    for (auto &list : partial_)
        list.clear();
    flip_scratch_.clear();

    FlipResult result;
    std::size_t live_small = 0;
    std::size_t freed_bytes = 0;
    for (std::size_t c = 0; c < num_chunks_; ++c) {
        ChunkInfo &info = chunks_[c];
        if (info.kind != ChunkKind::Small)
            continue;
        ChunkBits &bits = bits_[c];
        const std::uint32_t marked = bits.marked;
        LP_ASSERT(marked <= info.liveBlocks, "more blocks marked than in use");
        const std::uint32_t dead = info.liveBlocks - marked;
        stats_.objectsFreed += dead;
        freed_bytes += static_cast<std::size_t>(dead) * info.blockBytes;
        live_small += static_cast<std::size_t>(marked) * info.blockBytes;
        if (marked == 0) {
            makeChunkFree(c);
            ++result.freedChunks;
            continue;
        }
        for (std::size_t w = 0; w < (info.numBlocks + 63) / 64; ++w) {
            bits.inUse[w] &= bits.mark[w];
            bits.mark[w] = 0;
        }
        bits.marked = 0;
        info.liveBlocks = marked;
        if (dead != 0)
            partial_[info.sizeClass].push_back(static_cast<std::uint32_t>(c));
        else if (info.hasRoom())
            flip_scratch_.push_back(static_cast<std::uint32_t>(c));
    }
    for (std::uint32_t c : flip_scratch_)
        partial_[chunks_[c].sizeClass].push_back(c);

    std::size_t live_large = 0;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < large_objects_.size(); ++i) {
        LargeAlloc &alloc = large_objects_[i];
        word_t &mark = largeMark(alloc.object);
        if (mark) {
            mark = 0;
            live_large += alloc.bytes;
            if (keep != i)
                large_objects_[keep] = std::move(alloc);
            ++keep;
            continue;
        }
        ++stats_.objectsFreed;
        freed_bytes += alloc.bytes;
        large_bytes_.fetch_sub(alloc.bytes, std::memory_order_relaxed);
    }
    large_objects_.resize(keep);
    stats_.bytesFreed += freed_bytes;
    used_bytes_.fetch_sub(freed_bytes, std::memory_order_relaxed);

    result.liveBytes = live_small + live_large;
    result.committedBytes = committedBytes();
    return result;
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
        // The bitmap is authoritative, leased or not.
        for (std::size_t w = 0; w < kBitmapWords; ++w) {
            for (std::uint64_t word = bits_[c].inUse[w]; word != 0;
                 word &= word - 1) {
                const std::size_t b =
                    w * 64 + static_cast<std::size_t>(std::countr_zero(word));
                fn(reinterpret_cast<Object *>(chunkBase(c) + b * info.blockBytes),
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
        std::uint32_t bits = 0;
        bool past_end = false;
        for (std::size_t w = 0; w < kBitmapWords; ++w) {
            const std::uint64_t word = bits_[c].inUse[w];
            bits += static_cast<std::uint32_t>(std::popcount(word));
            // The word's bits at or past numBlocks (all of a free
            // chunk's) must be clear.
            const std::size_t first = w * 64;
            const std::uint64_t beyond =
                info.numBlocks <= first ? ~std::uint64_t{0}
                : info.numBlocks - first >= 64
                    ? 0
                    : ~std::uint64_t{0} << (info.numBlocks - first);
            if (word & beyond)
                past_end = true;
        }
        if (past_end)
            report(detail::concat("chunk ", c, ": in-use bit at or past its ",
                                  info.numBlocks, " blocks"));
        switch (info.kind) {
          case ChunkKind::Free:
            ++free_seen;
            break;
          case ChunkKind::Small:
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

void
Heap::checkMarksClear(FunctionRef<void(const std::string &)> report) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t c = 0; c < num_chunks_; ++c) {
        bool set = bits_[c].marked != 0;
        for (std::size_t w = 0; w < kBitmapWords; ++w)
            set |= bits_[c].mark[w] != 0;
        if (set)
            report(detail::concat("chunk ", c, ": ", bits_[c].marked,
                                  " block(s) marked outside a collection"));
    }
    for (const LargeAlloc &alloc : large_objects_) {
        if (largeMark(alloc.object) != 0)
            report(detail::concat("large object ", alloc.object,
                                  ": side mark set outside a collection"));
    }
}

void
Heap::toggleInUseBitForTesting(const Object *in_chunk, std::size_t block)
{
    const word_t off = reinterpret_cast<word_t>(in_chunk) - arena_base_;
    LP_ASSERT(off < capacity() && block < 64 * kBitmapWords);
    bits_[off / kChunkBytes].inUse[block / 64] ^= std::uint64_t{1}
                                                  << (block % 64);
}

} // namespace lp

/**
 * @file
 * The managed heap: a fixed-capacity, non-moving, chunked
 * segregated-fit mark-sweep space in the MMTk mold (the paper's
 * collector is MMTk's parallel generational mark-sweep; leak pruning
 * needs its non-moving, hard-bounded character).
 *
 * Layout: the arena is divided into 16KB chunks, each either free or
 * dedicated to one small-object size class (blocks of one fixed size).
 * Per-chunk side metadata lives outside the arena, so objects need no
 * boundary tags and their headers no mark bit: each small chunk has an
 * in-use bit and a mark bit per block, in dense per-chunk rows
 * (ChunkBits). Objects above the large threshold live in a separate
 * large-object space (LOS): each is its own host allocation, charged
 * against the same capacity budget, with its mark in a word in front
 * of the object. That mirrors MMTk's LOS, where large objects draw on
 * page-granular *virtual* memory and the heap bound is on total
 * bytes, never on physical contiguity — essential here, because a
 * growing hash table's backing array must stay allocatable while
 * small live objects are sprinkled all over the arena.
 *
 * This bounds fragmentation the way real mark-sweep VMs do: small
 * objects of different sizes never interleave with large allocations,
 * and a fully-freed chunk returns to the free pool where it can back
 * any future size class. (The first version of this heap used a
 * single boundary-tag free list; a hash table's 64KB backing array
 * then became unallocatable at 43% occupancy because freed 2KB
 * payloads interleaved with live 40-byte entries. See DESIGN.md.)
 *
 * Collection (MMTk's side mark metadata): the collector claims an
 * object with tryMark(), a test-and-set of its side mark bit, and the
 * epoch flip is the whole sweep. It reclaims every dead block from the
 * bitmaps alone (in-use &= mark, a few word operations per chunk) and
 * zeroes the marks, so reclamation never reads or writes a dead block;
 * a cache carves the next zero in-use bit when it hands one out again.
 *
 * Synchronization (MMTk-style, see DESIGN.md "Allocation fast path &
 * sweep"): small objects are never allocated here. Whole
 * chunks are leased to per-thread caches (ThreadAllocCache), which
 * carve blocks with no synchronization. The central operations —
 * chunk lease/retire and LOS allocation — are serialized by a short
 * internal mutex. Whole-heap operations (the epoch flip,
 * forEachObject*, verifyIntegrity) and the mark run with the world
 * stopped and every lease retired, on the thread that stopped it.
 */

#ifndef LP_HEAP_HEAP_H
#define LP_HEAP_HEAP_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "object/object.h"
#include "util/bits.h"
#include "util/function_ref.h"
#include "util/logging.h"

namespace lp {

class Telemetry;

/** Allocation and occupancy statistics for one heap. */
struct HeapStats {
    std::uint64_t allocations = 0;      //!< successful allocations
    std::uint64_t bytesAllocated = 0;   //!< cumulative bytes handed out
    std::uint64_t failedAllocations = 0;//!< allocations that needed help
    std::uint64_t sweeps = 0;           //!< epoch flips (collections)
    std::uint64_t objectsFreed = 0;     //!< objects reclaimed by sweeps
    std::uint64_t bytesFreed = 0;       //!< bytes reclaimed by sweeps
};

/**
 * One chunk on loan to a thread-local allocation cache. The lease
 * carries everything the cache needs to carve blocks without touching
 * the heap: the data base and the in-use bitmap of the (exclusively
 * owned) chunk, the number of free blocks it had when leased, and a
 * word cursor below which every bitmap word is full. `allocated`
 * counts blocks carved since the lease was taken; the heap folds it
 * into liveBlocks and usedBytes() when the lease is retired.
 */
struct ChunkLease {
    static constexpr std::size_t kNoChunk = static_cast<std::size_t>(-1);

    std::size_t chunkIndex = kNoChunk;
    unsigned char *base = nullptr;
    std::uint64_t *inUse = nullptr;   //!< leased chunk's bitmap words
    std::uint32_t blockBytes = 0;
    std::uint32_t room = 0;           //!< free blocks when leased
    std::uint32_t word = 0;           //!< carve cursor (bitmap word)
    std::uint32_t allocated = 0;      //!< blocks carved under this lease

    bool valid() const { return chunkIndex != kNoChunk; }
};

class Heap
{
  public:
    /** Chunk granule: the unit of space assignment. */
    static constexpr std::size_t kChunkBytes = 16 * 1024;

    /** Smallest block size (object header + one payload word). */
    static constexpr std::size_t kMinBlockBytes = 3 * kWordBytes;

    /** Requests above this take whole chunk runs (the LOS boundary). */
    static constexpr std::size_t kLargeThreshold = kChunkBytes / 2;

    /** Bitmap words per chunk: one bit per block of the smallest class. */
    static constexpr std::size_t kBitmapWords =
        (kChunkBytes / kMinBlockBytes + 63) / 64;

    /**
     * @param capacity arena size in bytes (rounded down to whole
     *        chunks, minimum one chunk); the hard memory bound that
     *        out-of-memory semantics are defined against.
     */
    explicit Heap(std::size_t capacity);
    ~Heap();

    Heap(const Heap &) = delete;
    Heap &operator=(const Heap &) = delete;

    /**
     * Allocate a large object of @p bytes (header included, above
     * kLargeThreshold) in the LOS, under the internal lock. Returns
     * the object address, or nullptr when the byte budget cannot
     * cover it — the caller's cue to collect. Small objects are
     * allocated only through ThreadAllocCache leases.
     */
    void *allocateLarge(std::size_t bytes);

    // --- thread-local allocation protocol --------------------------------

    /** Number of small-object size classes (cache table dimension). */
    std::size_t numSizeClasses() const { return class_sizes_.size(); }

    /**
     * Index of the smallest size class that fits @p bytes (at most
     * kLargeThreshold): one load from a table indexed by 8-byte step.
     */
    std::size_t
    sizeClassFor(std::size_t bytes) const
    {
        LP_ASSERT(bytes <= kLargeThreshold, "size not covered by classes");
        return class_of_step_[(bytes + kWordBytes - 1) / kWordBytes];
    }

    /** Block size of size class @p cls. */
    std::uint32_t
    sizeClassBytes(std::size_t cls) const
    {
        return class_sizes_[cls];
    }

    /**
     * Lease one chunk of @p size_class to a thread-local cache: a
     * short critical section that pops a partial chunk (or commissions
     * a free one) and hands the whole thing to the caller. Until the
     * lease is retired the chunk belongs exclusively to that cache —
     * the heap will not lease it again, and its liveBlocks /
     * usedBytes() contribution is deferred to retire time. A granted
     * lease emits a CacheRefill trace instant (size class, chunk
     * bytes) on the calling thread's track.
     *
     * @return false when no chunk is available (the caller's cue to
     *         collect, counted in failedAllocations); the lease is left
     *         invalid.
     */
    bool leaseChunk(std::size_t size_class, ChunkLease &lease);

    /**
     * Return a leased chunk: fold the carved blocks into liveBlocks
     * and usedBytes(), and make the chunk allocatable again (partial
     * list or free pool). Safe to call with an invalid lease (no-op).
     * Resets @p lease.
     */
    void retireChunk(ChunkLease &lease);

    /** Fold cache-side allocation tallies into stats() (short lock). */
    void noteCacheAllocations(std::uint64_t count, std::uint64_t bytes);

    /**
     * Chunks currently on lease to thread caches. Exact only while the
     * world is stopped (the verifier checks it is then zero).
     */
    std::size_t leasedChunkCount() const;

    // --- side-mark collection protocol -----------------------------------
    //
    // A collection claims each reachable object once with tryMark(),
    // then flipMarkEpoch() reclaims every unmarked block and large
    // object and clears the marks, all inside the pause. Between
    // collections every mark bit is zero.

    /**
     * The collector's claim: set @p obj's side mark bit. @return true
     * iff this call set it (the caller owns tracing the object).
     *
     * Collector only, world stopped: a plain test and plain stores to
     * a bitmap and a counter that only the collector writes, so no
     * locked instruction. A small object's block index comes from its offset
     * in the chunk times the chunk's reciprocal of its block size,
     * exact for every word-aligned offset below 2^14. The claim touches
     * the reciprocal, the marked count and one mark word of the chunk's
     * ChunkBits and nothing else, never the header.
     */
    bool
    tryMark(const Object *obj)
    {
        const word_t off = reinterpret_cast<word_t>(obj) - arena_base_;
        if (off >= capacity()) [[unlikely]]
            return tryMarkLarge(obj);
        ChunkBits &bits = bits_[off / kChunkBytes];
        const std::size_t block = blockIndex(bits, off);
        std::uint64_t &word = bits.mark[block / 64];
        const std::uint64_t bit = std::uint64_t{1} << (block % 64);
        if (word & bit)
            return false;
        word |= bit;
        ++bits.marked;
        return true;
    }

    /** Is @p obj's side mark bit set? World-stopped. */
    bool isMarked(const Object *obj) const;

    /** What flipMarkEpoch() reclaimed and left. */
    struct FlipResult {
        std::size_t liveBytes = 0;      //!< exact bytes surviving this GC
        std::size_t committedBytes = 0; //!< committed after reclamation
        std::size_t freedChunks = 0;    //!< chunks returned to the pool
    };

    /**
     * End of pause, and the whole sweep: per small chunk, the marked
     * blocks are its live ones. A chunk with none returns to the free
     * pool; a mixed chunk keeps in-use &= mark and counts its freed
     * blocks; then its marks are zeroed. Unmarked large objects are
     * freed. No dead block is read or written. World-stopped, leases
     * retired (asserted).
     *
     * The lease order it leaves decides which chunks fill, and so
     * committedBytes() and every fullness decision: per class, chunks
     * retired during the cycle and fully live chunks with room first,
     * then mixed chunks, highest index first, then free chunks.
     */
    FlipResult flipMarkEpoch();

    /**
     * Attach a telemetry engine (may be null): chunk leases emit
     * CacheRefill instants. Call before mutators start.
     */
    void setTelemetry(Telemetry *telemetry) { telemetry_ = telemetry; }

    /** Visit every live (allocated) object. World-stopped/quiescent. */
    void forEachObject(FunctionRef<void(Object *)> fn) const;

    /**
     * Visit every live object together with the bytes the allocator
     * charges for it (its block size in a small-object chunk, its
     * page-rounded size in the LOS). With every lease retired, the
     * charges of all live objects sum to usedBytes() — the invariant
     * the heap verifier checks.
     */
    void forEachObjectWithCharge(
        FunctionRef<void(Object *, std::size_t)> fn) const;

    /** Usable arena capacity in bytes. */
    std::size_t capacity() const { return num_chunks_ * kChunkBytes; }

    /**
     * Bytes currently occupied by allocated blocks. Exact at
     * stop-the-world points (leases retired); while mutators run it
     * lags by the blocks carved from live leases since their last
     * flush — at most one chunk per thread per size class.
     */
    std::size_t
    usedBytes() const
    {
        return used_bytes_.load(std::memory_order_relaxed);
    }

    /**
     * Bytes in chunks committed to a size class or large run. This is
     * the allocator's view of consumption (a committed chunk cannot
     * serve other classes), and what heap-fullness decisions use.
     * Leased chunks are committed, so this never lags.
     */
    std::size_t
    committedBytes() const
    {
        return (num_chunks_ - free_chunks_.load(std::memory_order_relaxed)) *
                   kChunkBytes +
               large_bytes_.load(std::memory_order_relaxed);
    }

    /** Occupied fraction of the arena in [0, 1]. */
    double
    fullness() const
    {
        return static_cast<double>(usedBytes()) /
               static_cast<double>(capacity());
    }

    /**
     * Size of the largest allocation that would currently succeed
     * without collecting (fragmentation diagnostics).
     */
    std::size_t largestFreeBlock() const;

    /** True iff @p p points into the arena or the large-object space. */
    bool contains(const void *p) const;

    const HeapStats &stats() const { return stats_; }

    /** Panic on any metadata/accounting inconsistency (tests). */
    void verifyIntegrity() const;

    /**
     * Check chunk metadata and byte accounting, reporting each
     * inconsistency through @p report instead of panicking (the heap
     * verifier's log-only mode needs the non-fatal form): in-use bits
     * at or past a chunk's block count, liveBlocks against the bitmap
     * of every unleased chunk, and the free-chunk and byte counters.
     * With leases outstanding the byte checks degrade to inequalities
     * (the walked bitmaps lead the flushed counters by the unretired
     * carves).
     */
    void
    checkIntegrity(FunctionRef<void(const std::string &)> report) const;

    /**
     * Report every set mark bit, small or large, through @p report.
     * Between collections there must be none: a stray bit would make
     * the next trace skip its object as already claimed, or keep a
     * free block's chunk alive.
     */
    void checkMarksClear(FunctionRef<void(const std::string &)> report) const;

    /**
     * Corrupt the used-bytes counter by @p delta (fault-injection
     * tests of the heap verifier only).
     */
    void
    adjustUsedBytesForTesting(std::ptrdiff_t delta)
    {
        used_bytes_.store(
            static_cast<std::size_t>(
                static_cast<std::ptrdiff_t>(
                    used_bytes_.load(std::memory_order_relaxed)) +
                delta),
            std::memory_order_relaxed);
    }

    /**
     * Flip in-use bit @p block of the chunk holding @p in_chunk (a
     * small object) without touching liveBlocks or usedBytes()
     * (fault-injection tests of the heap verifier only).
     */
    void toggleInUseBitForTesting(const Object *in_chunk, std::size_t block);

  private:
    enum class ChunkKind : std::uint8_t { Free, Small };

    /** One large-object-space allocation. */
    struct LargeAlloc {
        std::unique_ptr<unsigned char[]> storage;
        std::size_t bytes = 0;     //!< charged bytes (rounded up)
        Object *object = nullptr;  //!< aligned object address
    };

    /** Per-chunk bookkeeping read by the central paths. */
    struct ChunkInfo {
        ChunkKind kind = ChunkKind::Free;
        std::uint16_t sizeClass = 0;   //!< Small: index into class table
        std::uint32_t blockBytes = 0;  //!< Small: block size
        std::uint32_t numBlocks = 0;   //!< Small: blocks per chunk
        std::uint32_t liveBlocks = 0;  //!< Small: blocks in use (flushed)
        bool leased = false;           //!< on loan to a thread cache

        /** Small: some block is free. */
        bool hasRoom() const { return liveBlocks < numBlocks; }
    };

    /**
     * One chunk's side bitmaps, one bit per block, the reciprocal
     * tryMark() finds a block with and the count of its marked blocks.
     * Cache-line aligned, so carving threads never share a line, and
     * laid out so a claim's mark word, reciprocal and count span at
     * most two lines. Zero for a free chunk.
     */
    struct alignas(64) ChunkBits {
        std::uint64_t inUse[kBitmapWords];
        std::uint64_t mark[kBitmapWords];
        std::uint32_t blockRecip; //!< ceil(2^32 / blockBytes)
        //! Blocks claimed this collection: the flip's live count without
        //! a popcount (baseline x86-64 has no popcnt instruction, and
        //! std::popcount then costs a dozen instructions a word).
        std::uint32_t marked;
    };

    static std::vector<std::uint32_t> buildSizeClasses();

    //! Block holding arena offset @p off in the chunk @p bits describes.
    static std::size_t
    blockIndex(const ChunkBits &bits, word_t off)
    {
        return ((off % kChunkBytes) * bits.blockRecip) >> 32;
    }

    unsigned char *chunkBase(std::size_t chunk) const;
    bool tryMarkLarge(const Object *obj);
    //! A large object's side mark: the word in front of it.
    static word_t &largeMark(const Object *obj);
    void *allocateLargeLocked(std::size_t bytes);
    std::size_t takeFreeChunkLocked();      //!< returns index or npos
    void commissionChunkLocked(std::size_t chunk, std::size_t cls);
    void makeChunkFree(std::size_t chunk);

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    std::size_t num_chunks_;
    std::unique_ptr<unsigned char[]> storage_;
    word_t arena_base_;
    //! Relaxed atomics: mutated inside the central critical section or
    //! at stop-the-world points, read lock-free by reporting paths.
    std::atomic<std::size_t> used_bytes_{0};
    std::atomic<std::size_t> free_chunks_{0};
    std::vector<std::uint32_t> class_sizes_;      //!< block size per class
    //! Size class per 8-byte request step, 0 to kLargeThreshold / 8.
    std::vector<std::uint8_t> class_of_step_;
    //! Per class: unleased chunks with room, leased from the back
    //! (guarded by mutex_; flipMarkEpoch() sets the order).
    std::vector<std::vector<std::uint32_t>> partial_;
    std::vector<ChunkInfo> chunks_;
    std::unique_ptr<ChunkBits[]> bits_;           //!< per chunk
    //! Fully live chunks with room, gathered during a flip.
    std::vector<std::uint32_t> flip_scratch_;
    std::vector<LargeAlloc> large_objects_;       //!< the LOS
    std::atomic<std::size_t> large_bytes_{0};     //!< LOS occupancy
    std::size_t leased_chunks_ = 0;               //!< guarded by mutex_
    Telemetry *telemetry_ = nullptr;
    HeapStats stats_;
    //! Serializes the central paths (lease/retire, LOS) against each
    //! other. Never held across a safepoint.
    mutable std::mutex mutex_;
};

} // namespace lp

#endif // LP_HEAP_HEAP_H

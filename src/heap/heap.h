/**
 * @file
 * The managed heap: a fixed-capacity, non-moving, chunked
 * segregated-fit mark-sweep space in the MMTk mold (the paper's
 * collector is MMTk's parallel generational mark-sweep; leak pruning
 * needs its non-moving, hard-bounded character).
 *
 * Layout: the arena is divided into 16KB chunks, each either free or
 * dedicated to one small-object size class (blocks of one fixed size,
 * carved by a bump cursor and recycled through a chunk-local free
 * list). Per-chunk side metadata (kind, class, in-use bitmap) lives
 * outside the arena, so objects need no boundary tags. Objects above
 * the large threshold live in a separate large-object space (LOS):
 * each is its own host allocation, charged against the same capacity
 * budget. That mirrors MMTk's LOS, where large objects draw on
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
 * Synchronization (MMTk-style, see DESIGN.md "Allocation fast path &
 * bulk sweep"): small objects are never allocated here. Whole
 * chunks are leased to per-thread caches (ThreadAllocCache), which
 * carve blocks with no synchronization. The central operations —
 * chunk lease/retire, LOS allocation, lazy sweeps — are serialized by
 * a short internal mutex. Whole-heap operations (the epoch flip,
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

namespace lp {

class Telemetry;

/** Allocation and occupancy statistics for one heap. */
struct HeapStats {
    std::uint64_t allocations = 0;      //!< successful allocations
    std::uint64_t bytesAllocated = 0;   //!< cumulative bytes handed out
    std::uint64_t failedAllocations = 0;//!< allocations that needed help
    std::uint64_t sweeps = 0;           //!< mark-epoch flips (collections)
    std::uint64_t objectsFreed = 0;     //!< objects reclaimed by sweeps
    std::uint64_t bytesFreed = 0;       //!< bytes reclaimed by sweeps
};

/**
 * One chunk on loan to a thread-local allocation cache. The lease
 * carries everything the cache needs to carve blocks without touching
 * the heap: the data base, the in-use bitmap of the (exclusively
 * owned) chunk, and private copies of the bump/free-list cursors that
 * are written back at retire time. `allocated` counts blocks carved
 * since the lease was taken; the heap folds it into liveBlocks and
 * usedBytes() when the lease is retired.
 */
struct ChunkLease {
    static constexpr std::size_t kNoChunk = static_cast<std::size_t>(-1);

    std::size_t chunkIndex = kNoChunk;
    unsigned char *base = nullptr;
    std::uint64_t *inUse = nullptr;   //!< leased chunk's bitmap words
    std::uint32_t blockBytes = 0;
    std::uint32_t numBlocks = 0;
    std::uint32_t bump = 0;           //!< private cursor, written back
    std::int32_t freeHead = -1;       //!< private cursor, written back
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

    /** Index of the smallest size class that fits @p bytes. */
    std::size_t sizeClassFor(std::size_t bytes) const;

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
     * Return a leased chunk: write back the bump/free-list cursors,
     * fold the carved blocks into liveBlocks and usedBytes(), and make
     * the chunk allocatable again (partial list or free pool). Safe to
     * call with an invalid lease (no-op). Resets @p lease.
     */
    void retireChunk(ChunkLease &lease);

    /** Fold cache-side allocation tallies into stats() (short lock). */
    void noteCacheAllocations(std::uint64_t count, std::uint64_t bytes);

    /**
     * Chunks currently on lease to thread caches. Exact only while the
     * world is stopped (the verifier checks it is then zero).
     */
    std::size_t leasedChunkCount() const;

    // --- epoch-parity collection protocol ----------------------------------
    //
    // The staged collector never clears mark bits. An object is live
    // when its mark bit equals the low bit of the heap's markEpoch
    // ("live parity"); a collection marks with the *next* parity and
    // flips markEpoch at the end of the pause, turning every
    // unmarked object dead in O(1). Reclamation then happens outside
    // the pause: chunks and the LOS carry a sweptEpoch, and the
    // allocation slow path sweeps a chunk on first touch after a
    // flip. Because one bit cannot distinguish three epochs, every
    // pending sweep must complete before the next mark phase begins
    // (the sweep-completeness rule): the collector runs finishSweep()
    // at the start of each pause, and flipMarkEpoch() asserts it.

    /** Live mark parity: an object is live iff markedFor(markParity()). */
    unsigned
    markParity() const
    {
        return static_cast<unsigned>(mark_epoch_.load(std::memory_order_relaxed) & 1);
    }

    /** Number of mark-epoch flips so far (one per completed collection). */
    std::uint64_t
    markEpoch() const
    {
        return mark_epoch_.load(std::memory_order_relaxed);
    }

    /**
     * Start a mark phase: zero the per-chunk and LOS mark-time byte
     * accounting that noteMarked() accumulates. World-stopped, after
     * finishSweep() (the sweep-completeness rule).
     */
    void beginMark();

    /**
     * Account one newly marked object (called exactly once per object
     * per collection, by the collector when it claims the object).
     * O(1) chunk lookup, then a relaxed load and a relaxed store: the
     * collector is the one thread running during the mark, so the
     * add needs no locked instruction. Feeds flipMarkEpoch()'s exact
     * live-byte totals.
     */
    void noteMarked(const Object *obj);

    /** What flipMarkEpoch() learned from the mark-time accounting. */
    struct FlipResult {
        std::size_t liveBytes = 0;      //!< exact bytes surviving this GC
        std::size_t committedBytes = 0; //!< as if the sweep had run eagerly
        std::size_t pendingChunks = 0;  //!< chunks left for lazy sweeping
    };

    /**
     * End of pause: advance markEpoch so the mark bits just written
     * become the live parity. Fully-dead chunks are freed immediately
     * from metadata alone (no header walks); chunks with a mix of
     * live and dead blocks are queued for lazy sweeping, as is the
     * LOS if any large object died. World-stopped, leases retired,
     * every chunk swept (asserted). The returned committedBytes
     * excludes dead large objects — exactly what an eager sweep would
     * have left — so CollectionOutcome::fullness() is identical in
     * lazy and eager modes.
     */
    FlipResult flipMarkEpoch();

    /**
     * Complete every pending sweep now (all queued chunks plus the
     * LOS). Safe while mutators run (the central lock serializes it
     * against allocation). @p in_pause only picks the telemetry track:
     * the collector's in-pause call is drawn on the GC track.
     * Runtime::allocateSlow must call this (and retry) before
     * reporting memory exhaustion.
     *
     * @return bytes freed.
     */
    std::size_t finishSweep(bool in_pause = false);

    /** Any chunks or LOS entries still awaiting a lazy sweep? */
    bool
    sweepPending() const
    {
        return pending_chunks_.load(std::memory_order_relaxed) != 0 ||
               los_pending_.load(std::memory_order_relaxed);
    }

    /** Chunks awaiting a lazy sweep (telemetry gauge). */
    std::size_t
    pendingSweepChunks() const
    {
        return pending_chunks_.load(std::memory_order_relaxed);
    }

    /** Sweep progress of the space one object lives in (verifier). */
    enum class ObjectSweepState : std::uint8_t {
        Swept,       //!< space reconciled: object must be live parity
        PendingLive, //!< sweep pending; object is marked live
        PendingDead, //!< sweep pending; object is garbage awaiting free
    };

    /**
     * Classify @p obj (which must be a currently allocated block or
     * LOS object) against the sweep state of its chunk/space. Exact
     * only at stop-the-world points.
     */
    ObjectSweepState sweepStateOf(const Object *obj) const;

    /**
     * Attach a telemetry engine (may be null): chunk leases emit
     * CacheRefill instants, lazy sweeps on the allocation path emit
     * LazySweep spans and finishSweep() emits a FinishSweep span. Call
     * before mutators start.
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

    /** Bytes not occupied by allocated blocks. */
    std::size_t freeBytes() const { return capacity() - usedBytes(); }

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
     * verifier's log-only mode needs the non-fatal form). With leases
     * outstanding the byte checks degrade to inequalities (the walked
     * bitmaps lead the flushed counters by the unretired carves).
     */
    void
    checkIntegrity(FunctionRef<void(const std::string &)> report) const;

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

  private:
    enum class ChunkKind : std::uint8_t { Free, Small };

    /** One large-object-space allocation. */
    struct LargeAlloc {
        std::unique_ptr<unsigned char[]> storage;
        std::size_t bytes = 0;     //!< charged bytes (rounded up)
        Object *object = nullptr;  //!< aligned object address
    };

    /** Side metadata for one chunk. */
    struct ChunkInfo {
        ChunkKind kind = ChunkKind::Free;
        std::uint16_t sizeClass = 0;   //!< Small: index into class table
        std::uint32_t blockBytes = 0;  //!< Small: block size
        std::uint32_t numBlocks = 0;   //!< Small: blocks per chunk
        std::uint32_t liveBlocks = 0;  //!< Small: blocks in use (flushed)
        std::uint32_t bump = 0;        //!< Small: blocks ever carved
        std::int32_t freeHead = -1;    //!< Small: chunk-local free list
        bool leased = false;           //!< on loan to a thread cache
        std::uint64_t sweptEpoch = 0;  //!< last markEpoch this was swept to
        std::vector<std::uint64_t> inUse; //!< Small: per-block bitmap

        /** Small: a block is free or never carved. */
        bool hasRoom() const { return freeHead >= 0 || bump < numBlocks; }
    };

    /** Free/byte tallies from sweeping some chunks (merged serially). */
    struct SweepTally {
        std::uint64_t objectsFreed = 0;
        std::size_t bytesFreed = 0;
    };

    static std::vector<std::uint32_t> buildSizeClasses();

    unsigned char *chunkBase(std::size_t chunk) const;
    void *allocateLargeLocked(std::size_t bytes);
    std::size_t takeFreeChunkLocked();      //!< returns index or npos
    void commissionChunkLocked(std::size_t chunk, std::size_t cls);
    void makeChunkFree(std::size_t chunk);
    //! Reclaim dead blocks of one pending chunk (no shared-state writes
    //! beyond the chunk's own metadata and atomics).
    void sweepChunkImpl(std::size_t chunk, SweepTally &tally);
    //! Pop one pending chunk of @p cls, sweep it, fold the tallies.
    std::size_t takePendingChunkLocked(std::size_t cls);
    std::size_t sweepLosLocked(); //!< returns bytes freed

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    std::size_t num_chunks_;
    std::unique_ptr<unsigned char[]> storage_;
    word_t arena_base_;
    //! Relaxed atomics: mutated inside the central critical section or
    //! at stop-the-world points, read lock-free by reporting paths.
    std::atomic<std::size_t> used_bytes_{0};
    std::atomic<std::size_t> free_chunks_{0};
    std::vector<std::uint32_t> class_sizes_;      //!< block size per class
    //! Per class: unleased swept chunks with room (guarded by mutex_).
    std::vector<std::vector<std::uint32_t>> partial_;
    //! Per class: chunks with live data awaiting a lazy sweep. Never
    //! allocated from or leased until swept (guarded by mutex_).
    std::vector<std::vector<std::uint32_t>> pending_;
    std::vector<ChunkInfo> chunks_;
    std::vector<LargeAlloc> large_objects_;       //!< the LOS
    std::atomic<std::size_t> large_bytes_{0};     //!< LOS occupancy
    std::size_t leased_chunks_ = 0;               //!< guarded by mutex_
    //! Epoch-parity state. mark_epoch_ advances under mutex_ at
    //! stop-the-world flips and is read lock-free (allocation parity,
    //! verifier); the mark-time byte tallies are written by the
    //! collector in the pause, with relaxed loads and stores.
    std::atomic<std::uint64_t> mark_epoch_{0};
    std::unique_ptr<std::atomic<std::uint32_t>[]> marked_bytes_; //!< per chunk
    std::atomic<std::size_t> marked_large_bytes_{0};
    std::atomic<std::size_t> pending_chunks_{0};
    std::atomic<bool> los_pending_{false};
    std::uint64_t los_swept_epoch_ = 0;           //!< guarded by mutex_
    Telemetry *telemetry_ = nullptr;
    HeapStats stats_;
    //! Serializes the central paths (lease/retire, LOS, lazy sweeps)
    //! against each other. Never held across a safepoint.
    mutable std::mutex mutex_;
};

} // namespace lp

#endif // LP_HEAP_HEAP_H

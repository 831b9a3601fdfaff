/**
 * @file
 * The Runtime: the public face of the managed runtime.
 *
 * Wires together the heap, the collector, the thread registry, the
 * root table, and (optionally) the leak-pruning engine, and provides
 * the application-facing operations: class registration, allocation,
 * and reference reads/writes.
 *
 * Reference reads go through the paper's conditional read barrier
 * (Section 4.1): the fast path is a single test of the reference's
 * tag bits, plus a plain count in the reading thread's own registry
 * entry (BarrierStats, see ThreadRegistry); the out-of-line cold path
 * checks for poison (throwing InternalError with the deferred
 * OutOfMemoryError as cause), clears the stale-check bit, zeroes the
 * target's stale counter, and updates the edge table's maxStaleUse.
 *
 * Each mutator has one record, its ThreadRegistry entry, holding its
 * chunk leases (ThreadAllocCache), its last-allocation root and its
 * barrier counters. Small allocations take a lock-free fast path: one
 * TLS lookup finds the entry, and the thread carves a block from its
 * leases, falling into the locked slow path only to refill a chunk,
 * allocate large, or collect. Allocation remains the collection
 * trigger: when the heap cannot serve a request (or the allocation
 * budget since the last collection is spent), the allocating thread
 * stops the world and collects; if space is still short, it keeps
 * collecting while the pruning engine reports progress (SELECT
 * choosing a victim, PRUNE poisoning references) and finally throws
 * OutOfMemoryError.
 */

#ifndef LP_VM_RUNTIME_H
#define LP_VM_RUNTIME_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "analysis/heap_verifier.h"
#include "core/config.h"
#include "core/errors.h"
#include "core/leak_pruning.h"
#include "gc/collector.h"
#include "vm/disk_offload.h"
#include "heap/heap.h"
#include "heap/thread_cache.h"
#include "object/class_info.h"
#include "object/object.h"
#include "telemetry/telemetry.h"
#include "threads/safepoint.h"
#include "vm/handles.h"

namespace lp {

/** Read-barrier deployment mode. */
enum class BarrierMode {
    /**
     * Barriers compiled into every reference load (the paper's
     * prototype: "our implementation uses all-the-time barriers").
     */
    AllTheTime,
    /**
     * No read barriers at all: the unmodified-VM baseline used to
     * measure barrier overhead (Fig. 6). Leak pruning cannot run.
     */
    None,
};

/** Which leak-tolerance scheme runs on top of the collector. */
enum class ToleranceMode {
    None,        //!< plain GC (the paper's "Base")
    LeakPruning, //!< the paper's system
    /**
     * The LeakSurvivor/Melt-style baseline (paper Sections 6.1 and 7):
     * move highly stale objects to disk, fault them back on access.
     */
    DiskOffload,
};

/** Construction parameters for a Runtime. */
struct RuntimeConfig {
    std::size_t heapBytes = 64u << 20;  //!< hard heap bound
    /**
     * Collector threads. The collector is serial: 1 is the only
     * accepted value, and Runtime refuses any other. The field stays
     * only for callers that still set it.
     */
    std::size_t gcThreads = 1;
    BarrierMode barrierMode = BarrierMode::AllTheTime;
    /**
     * Master switch; false forces ToleranceMode::None. It duplicates
     * `tolerance`; the benchmark's workloads
     * (perfbench/cpp/workloads.cpp) and the runtime-level tests still
     * set it, while the harness selects the scheme with `tolerance`
     * alone.
     */
    bool enableLeakPruning = true;
    /** Scheme selected when the master switch is on. */
    ToleranceMode tolerance = ToleranceMode::LeakPruning;
    LeakPruningConfig pruning;
    DiskOffloadConfig offload;
    /**
     * Trigger a collection once allocation since the last one exceeds
     * this fraction of the heap, instead of waiting for exhaustion.
     * Models the paper's setting, where the collector runs "each time
     * the program fills the heap" — periodic full-heap collections are
     * what give leaked objects time to become stale before memory runs
     * out ("objects need time to become stale", paper Section 2), so
     * the budget must yield a good number of collections per heap
     * fill. Set to 0 to collect only on exhaustion.
     */
    double gcTriggerFraction = 1.0 / 16.0;
    /**
     * Heap-integrity verifier deployment: when enabled (the default in
     * debug builds), a full-heap invariant walk runs inside the pause
     * of every everyNCollections-th collection. Runtime::verifyHeap()
     * runs a pass on demand regardless of `enabled`.
     */
    HeapVerifierConfig verifier;
};

class Runtime
{
  public:
    explicit Runtime(const RuntimeConfig &config = RuntimeConfig{});
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    // --- class registration ---------------------------------------------

    class_id_t
    defineClass(const std::string &name, std::uint32_t num_ref_slots,
                std::uint32_t data_bytes = 0,
                std::function<void(Object *)> finalizer = {})
    {
        return registry_.registerScalar(name, num_ref_slots, data_bytes,
                                        std::move(finalizer));
    }

    class_id_t
    defineRefArrayClass(const std::string &name)
    {
        return registry_.registerRefArray(name);
    }

    class_id_t
    defineByteArrayClass(const std::string &name)
    {
        return registry_.registerByteArray(name);
    }

    const ClassRegistry &classes() const { return registry_; }

    // --- allocation -------------------------------------------------------

    /**
     * Allocate a scalar instance of @p cls. May collect; throws
     * OutOfMemoryError when the heap cannot satisfy the request.
     * The result is unrooted: store it into a Handle/field before the
     * next allocation.
     */
    Object *allocate(class_id_t cls);

    /** Allocate a reference array of @p length elements. */
    Object *allocateRefArray(class_id_t cls, std::size_t length);

    /** Allocate a byte array of @p length bytes. */
    Object *allocateByteArray(class_id_t cls, std::size_t length);

    // --- reference access (the read barrier lives here) --------------------

    /**
     * Read reference slot @p slot of @p src through the conditional
     * read barrier. Throws InternalError (cause: the deferred
     * OutOfMemoryError) if the reference was pruned.
     */
    Object *
    readRef(Object *src, std::size_t slot)
    {
        threads_.pollSafepoint();
        const ClassInfo &cls = registry_.info(src->classId());
        ref_t *addr = src->refSlotAddr(cls, slot);
        if (barriers_enabled_) {
            BarrierStats &counts = threads_.myBarrierStats();
            countOwned(counts.reads);
            const ref_t r =
                std::atomic_ref<ref_t>(*addr).load(std::memory_order_relaxed);
            if ((r & kTagMask) != 0) [[unlikely]]
                return readBarrierColdPath(src, cls, addr, r, counts);
            return refTarget(r);
        }
        return refTarget(*addr);
    }

    /** Store @p value into reference slot @p slot of @p src. */
    void
    writeRef(Object *src, std::size_t slot, Object *value)
    {
        threads_.pollSafepoint();
        const ClassInfo &cls = registry_.info(src->classId());
        // Plain store of a clean reference; overwriting also clears
        // any tag bits, which is correct: the old referent was either
        // re-traced next GC or became garbage.
        std::atomic_ref<ref_t>(*src->refSlotAddr(cls, slot))
            .store(makeRef(value), std::memory_order_relaxed);
    }

    /** Read a reference without the barrier (tests/diagnostics only). */
    Object *
    peekRef(Object *src, std::size_t slot)
    {
        const ClassInfo &cls = registry_.info(src->classId());
        return refTarget(*src->refSlotAddr(cls, slot));
    }

    /** Raw slot value including tag bits (tests only). */
    ref_t
    peekRefBits(Object *src, std::size_t slot)
    {
        const ClassInfo &cls = registry_.info(src->classId());
        return *src->refSlotAddr(cls, slot);
    }

    /**
     * Store raw bits into a reference slot, bypassing the write path
     * entirely (fault-injection tests of the heap verifier only).
     */
    void
    pokeRefBitsForTesting(Object *src, std::size_t slot, ref_t bits)
    {
        const ClassInfo &cls = registry_.info(src->classId());
        *src->refSlotAddr(cls, slot) = bits;
    }

    // --- threads and safepoints --------------------------------------------

    ThreadRegistry &threads() { return threads_; }
    RootTable &roots() { return roots_; }

    /** Poll for a pending stop-the-world pause. */
    void safepoint() { threads_.pollSafepoint(); }

    /**
     * Drop the calling thread's last-allocation root slot (each
     * mutator's freshest allocation is conservatively rooted until its
     * next allocation; see ThreadRegistry::ThreadState::lastAllocation).
     * Call when asserting a memory-precise state, e.g. before measuring
     * exact reachability in tests.
     */
    void
    releaseAllocationRoot()
    {
        if (ThreadRegistry::ThreadState *self = threads_.current())
            self->lastAllocation = 0;
    }

    // --- collection ----------------------------------------------------------

    /**
     * Force a full-heap collection (tests, benches). It always ticks
     * the staleness clock, allocated quantum or not.
     */
    CollectionOutcome collectNow();

    // --- heap-integrity verification ----------------------------------------

    /**
     * Run a heap-verifier pass right now: takes the allocation lock,
     * stops the world (bringing every mutator to a safepoint), walks
     * the heap, and resumes. Works whether or not the automatic
     * post-collection pass is enabled; honors the configured
     * fail-fast/log-only mode.
     */
    VerifierReport verifyHeap();

    /** The verifier instance (run and violation counts). */
    const HeapVerifier &heapVerifier() const { return *verifier_; }

    // --- introspection ---------------------------------------------------------

    Heap &heap() { return heap_; }
    const GcStats &gcStats() const { return collector_->stats(); }
    /**
     * Read-barrier counts, summed over every mutator this runtime has
     * had (see ThreadRegistry::barrierTotals()): exact for threads that
     * are not reading concurrently, and monotone between calls. Takes
     * the registry mutex; not for fast paths.
     */
    BarrierStats barrierStats() const { return threads_.barrierTotals(); }

    /** The pruning engine, or nullptr when not in LeakPruning mode. */
    LeakPruning *pruning() { return pruning_.get(); }
    const LeakPruning *pruning() const { return pruning_.get(); }

    /** The disk-offload baseline, or nullptr when not in that mode. */
    DiskOffload *diskOffload() { return offload_.get(); }
    const DiskOffload *diskOffload() const { return offload_.get(); }

    // --- telemetry ---------------------------------------------------------

    /**
     * The telemetry engine. Never null: every runtime owns one (the
     * pointer return keeps `if (Telemetry *t = rt.telemetry())` valid).
     */
    Telemetry *telemetry() { return &telemetry_; }

    /**
     * Write the Chrome trace-event JSON of the run to @p path. Returns
     * false when the file cannot be written.
     */
    bool writeTrace(const std::string &path);

    /**
     * Write the metrics snapshot to @p path as JSON: "counters",
     * "gauges" and "histograms" rendered from gcStats() and the
     * telemetry engine's drop and thread counts. Takes the allocation
     * lock (no collection runs while it reads) but does not stop the
     * world. Returns false when the file cannot be written.
     */
    bool writeMetricsJson(const std::string &path);

    /** Reachable bytes measured at the end of the last collection. */
    std::size_t lastLiveBytes() const { return collector_->stats().lastLiveBytes; }

    /**
     * Install an arbitrary collection plugin (tests of the GC/plugin
     * seam only; replaces any tolerance scheme for this runtime).
     */
    void
    installPluginForTesting(CollectionPlugin *plugin)
    {
        tolerance_plugin_ = plugin;
        collector_->setPlugin(plugin);
    }

    const RuntimeConfig &config() const { return config_; }

  private:
    /** Allocation quantum between staleness-clock ticks. */
    static constexpr std::size_t kClockQuantumBytes = 64 * 1024;
    /** Collections to attempt for one allocation before giving up. */
    static constexpr unsigned kMaxGcRoundsPerAllocation = 64;

    Object *allocateRaw(class_id_t cls, std::size_t bytes);
    void *allocateSlow(std::size_t bytes, ThreadAllocCache *cache);
    void noteAllocated(std::size_t bytes, ThreadAllocCache *cache);
    /**
     * Run one collection under the allocation lock and fold the bytes
     * it drained into the staleness clock. @p retry marks a collection
     * run because an allocation failed outright (see the definition
     * for when the clock ticks).
     */
    void collectLocked(bool retry = false);

    /**
     * The barrier's path for a tagged slot. @p counts is the calling
     * thread's entry, which readRef already looked up.
     */
    Object *readBarrierColdPath(Object *src, const ClassInfo &src_cls,
                                ref_t *addr, ref_t observed,
                                BarrierStats &counts);

    RuntimeConfig config_;
    ClassRegistry registry_;
    //! Declared before the heap/caches/collector so the engine
    //! outlives every instrumented component during destruction.
    Telemetry telemetry_;
    Heap heap_;
    std::size_t gc_budget_bytes_ = 0;     //!< allocation between collections
    std::size_t bytes_since_gc_ = 0;      //!< guarded by alloc_mutex_
    //! Allocation since the staleness clock last ticked. Starts at the
    //! quantum so the first collection of a run counts.
    std::size_t bytes_since_clock_tick_ = kClockQuantumBytes;
    //! Mutator records, each with its allocation cache; declared after
    //! heap_ so leases are retired (cache destructors) before the heap
    //! dies.
    ThreadRegistry threads_{heap_};
    RootTable roots_{threads_};
    std::unique_ptr<LeakPruning> pruning_;
    std::unique_ptr<DiskOffload> offload_;
    CollectionPlugin *tolerance_plugin_ = nullptr; //!< whichever is active
    std::unique_ptr<Collector> collector_;
    std::unique_ptr<HeapVerifier> verifier_;
    std::mutex alloc_mutex_;
    bool barriers_enabled_;
};

} // namespace lp

#endif // LP_VM_RUNTIME_H

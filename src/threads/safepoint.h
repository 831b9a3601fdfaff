/**
 * @file
 * Cooperative stop-the-world safepoints for mutator threads, and the
 * one per-thread record each mutator has.
 *
 * The paper's collector is stop-the-world (Section 5): all mutators
 * must be stopped before the collector traces or sweeps. We implement
 * the standard cooperative scheme:
 *
 *  - every mutator thread registers with the ThreadRegistry
 *    (RAII via MutatorScope);
 *  - mutators poll pollSafepoint() at allocation sites and in the read
 *    barrier, parking when a stop is requested;
 *  - threads performing long non-heap work wrap it in a BlockedScope,
 *    which counts as being at a safepoint for its duration;
 *  - the collecting thread calls stopTheWorld(), which blocks until
 *    every other registered mutator is parked or blocked, runs the
 *    collection, and then resumeTheWorld().
 *
 * The registry entry (ThreadState) is the mutator's only per-thread
 * record, as an MMTk mutator context is in Jikes RVM: it holds the
 * thread's allocation cache (chunk leases), its roots and its
 * read-barrier counters. A thread finds it through one cached
 * thread_local pointer (current()), and the entry lives exactly as
 * long as the registration: unregistering retires the thread's leases
 * and folds its counts into the registry before the entry goes.
 */

#ifndef LP_THREADS_SAFEPOINT_H
#define LP_THREADS_SAFEPOINT_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "heap/thread_cache.h"
#include "object/ref.h"
#include "util/function_ref.h"

namespace lp {

/**
 * Read-barrier event counts (validate that the fast/cold split works).
 *
 * Each registered mutator owns one set in its ThreadRegistry entry and
 * is its only writer, so counting is countOwned(): a relaxed load and
 * store, no locked instruction and no cache line shared with other
 * mutators. ThreadRegistry::barrierTotals() returns the sum over the
 * live entries and the counts of threads that have unregistered.
 */
struct BarrierStats {
    std::atomic<std::uint64_t> reads{0};        //!< reference loads executed
    std::atomic<std::uint64_t> coldPathHits{0}; //!< tag-bit test fired
    std::atomic<std::uint64_t> poisonThrows{0}; //!< InternalErrors thrown
};

/**
 * Count one event on a counter whose only writer is the calling
 * thread. Concurrent readers see every count up to some point, never
 * a torn value.
 */
inline void
countOwned(std::atomic<std::uint64_t> &counter)
{
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
}

/**
 * A mutator's handle slots, in fixed-size blocks it keeps until it
 * unregisters, so a slot never moves. A HandleScope (vm/handles.h)
 * saves the Mark on entry and puts it back on exit.
 */
class HandleStack
{
  public:
    static constexpr std::size_t kBlockSlots = 256;

    /** Where the stack stands; a scope saves and restores it whole. */
    struct Mark {
        ref_t *top;        //!< next free slot
        ref_t *limit;      //!< end of the current block
        std::size_t block; //!< index of the current block
        const void *scope; //!< innermost open scope, nullptr if none
    };

    HandleStack() { enterBlock(0); }

    /** Take the next slot, holding @p ref. */
    ref_t *
    push(ref_t ref)
    {
        if (mark.top == mark.limit) [[unlikely]]
            enterBlock(mark.block + 1);
        *mark.top = ref;
        return mark.top++;
    }

    /** Visit every slot in use, bottom to top (collector). */
    void forEachSlot(FunctionRef<void(ref_t *)> fn);

    Mark mark{};

  private:
    void enterBlock(std::size_t block);

    std::vector<std::unique_ptr<ref_t[]>> blocks_;
};

/**
 * Registry of mutator threads plus the stop-the-world protocol.
 * One instance per Runtime.
 */
class ThreadRegistry
{
  public:
    /**
     * One registered mutator's record; address-stable while the
     * thread stays registered. The public fields are the owning
     * thread's, written on its fast paths without a lock; the
     * collector touches them only while the world is stopped.
     */
    struct ThreadState {
        explicit ThreadState(Heap &heap) : cache(heap) {}

        //! Chunk leases the thread allocates small objects from.
        ThreadAllocCache cache;
        /**
         * The thread's most recent allocation. A fresh object is
         * invisible to the collector until the caller stores it into
         * a handle or a field; if another thread triggers a collection
         * inside that window the object would be swept. This slot is
         * part of the root set (a library runtime's stand-in for the
         * register/stack scanning a real VM does), closing the window.
         */
        ref_t lastAllocation = 0;
        //! The thread's handle slots; scanned after lastAllocation.
        HandleStack handles;
        //! Written on every reference load; on its own cache line so
        //! mutators never share one.
        alignas(64) BarrierStats barrier;

      private:
        friend class ThreadRegistry;
        enum class State : std::uint8_t { Running, Parked, Blocked };
        State state = State::Running; //!< guarded by the registry mutex
        //! Registration depth: registerMutator() nests (see there).
        int depth = 1;
    };

    /** @param heap the heap this registry's mutators allocate from. */
    explicit ThreadRegistry(Heap &heap);

    ThreadRegistry(const ThreadRegistry &) = delete;
    ThreadRegistry &operator=(const ThreadRegistry &) = delete;

    /**
     * Register the calling thread as a mutator. Re-entrant: a thread
     * that is already registered (e.g. the Runtime-constructing thread
     * opening an explicit MutatorScope) just deepens its registration
     * and keeps running — it must not wait out a pending pause, since
     * the pausing collector is waiting for this very thread to reach a
     * safepoint. Each registration must be matched by one
     * unregisterMutator(); the entry is removed at depth zero.
     */
    void registerMutator();

    /**
     * Unregister the calling thread (must not hold the world). At
     * depth zero the thread's leases are retired and its counts folded
     * into the registry before the entry is erased; the thread is
     * still running then, so no pause can start in between.
     */
    void unregisterMutator();

    /**
     * Fast check-and-park. Called from allocation paths and the read
     * barrier; parks the calling thread while a stop is in progress.
     */
    void
    pollSafepoint()
    {
        if (stop_requested_.load(std::memory_order_acquire)) [[unlikely]]
            park();
    }

    /** Enter a blocked (safepoint-equivalent) region. */
    void enterBlocked();

    /** Leave a blocked region, parking first if a stop is pending. */
    void exitBlocked();

    /**
     * Stop all other registered mutators. The caller becomes the "VM
     * thread" for the duration. Must be paired with resumeTheWorld().
     * Only one thread may hold the world at a time; in this runtime
     * that is guaranteed by the allocation lock.
     */
    void stopTheWorld();

    /** Release all mutators parked by stopTheWorld(). */
    void resumeTheWorld();

    /** True while a stop-the-world pause is in progress. */
    bool worldStopped() const { return world_stopped_.load(std::memory_order_acquire); }

    /** Number of registered mutators (diagnostics). */
    std::size_t mutatorCount() const;

    /**
     * The calling thread's entry, or nullptr if it is not a registered
     * mutator of this registry. The common case is one inline compare
     * of the thread's cached registry id; a thread that last used
     * another registry re-caches this one under the mutex once.
     */
    ThreadState *
    current()
    {
        if (tls_registry_id_ == registry_id_) [[likely]]
            return tls_state_;
        return currentSlow();
    }

    /** Visit each thread's lastAllocation, then its handles (collector). */
    void forEachRoot(FunctionRef<void(ref_t *)> fn);

    /**
     * Retire every live entry's chunk leases and flush its allocation
     * stats. Returns the GC-trigger bytes drained from them plus those
     * of threads that unregistered since the last call. World-stopped
     * (or quiescent) only: cache fields are read without the owners'
     * cooperation.
     */
    std::uint64_t retireAllocCaches();

    /**
     * The calling mutator's barrier counters (the entry's barrier
     * field, reached as in current()). Panics if the calling thread
     * is not a registered mutator.
     */
    BarrierStats &
    myBarrierStats()
    {
        if (tls_registry_id_ == registry_id_) [[likely]]
            return tls_state_->barrier;
        return myBarrierStatsSlow();
    }

    /**
     * Sum, under the mutex, of every live entry's barrier counters and
     * the counts folded in by unregisterMutator(). Exact for every
     * thread that is not counting concurrently (e.g. after its join,
     * or while the world is stopped); monotone between calls.
     */
    BarrierStats barrierTotals() const;

  private:
    using State = ThreadState::State;

    void park();
    ThreadState *currentSlow();
    BarrierStats &myBarrierStatsSlow();

    //! Per-thread cache of the calling thread's entry, sparing the
    //! barrier and allocation fast paths the mutex. Keyed on the
    //! process-unique registry id, not the address, which a later
    //! Runtime could reuse; the id matches only while tls_state_ is set.
    static inline thread_local std::uint64_t tls_registry_id_ = 0;
    static inline thread_local ThreadState *tls_state_ = nullptr;

    Heap &heap_;
    //! Process-unique id; the TLS cache keys on it rather than the
    //! object address, which could be reused by a later Runtime.
    const std::uint64_t registry_id_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::unordered_map<std::uint64_t, std::unique_ptr<ThreadState>> threads_;
    //! Counts of threads that have unregistered; guarded by mutex_.
    BarrierStats exited_barrier_;
    //! GC-trigger bytes drained from unregistered threads' caches and
    //! not yet handed out by retireAllocCaches(); guarded by mutex_.
    std::uint64_t exited_trigger_bytes_ = 0;
    std::atomic<bool> stop_requested_{false};
    std::atomic<bool> world_stopped_{false};
};

/** RAII mutator registration for a std::thread body. */
class MutatorScope
{
  public:
    explicit MutatorScope(ThreadRegistry &reg) : reg_(reg)
    {
        reg_.registerMutator();
    }

    ~MutatorScope() { reg_.unregisterMutator(); }

    MutatorScope(const MutatorScope &) = delete;
    MutatorScope &operator=(const MutatorScope &) = delete;

  private:
    ThreadRegistry &reg_;
};

/** RAII blocked region (safepoint-equivalent native work). */
class BlockedScope
{
  public:
    explicit BlockedScope(ThreadRegistry &reg) : reg_(reg)
    {
        reg_.enterBlocked();
    }

    ~BlockedScope() { reg_.exitBlocked(); }

    BlockedScope(const BlockedScope &) = delete;
    BlockedScope &operator=(const BlockedScope &) = delete;

  private:
    ThreadRegistry &reg_;
};

} // namespace lp

#endif // LP_THREADS_SAFEPOINT_H

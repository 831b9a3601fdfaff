/**
 * @file
 * The seam between the garbage collector and leak pruning.
 *
 * The paper implements leak pruning "almost exclusively in shared
 * [MMTk] code" by piggybacking on the collector's transitive closure.
 * We model that as a CollectionPlugin. The collector owns each
 * collection: its number, whether it ticks the staleness clock, and
 * its totals. It tells the plugin the number once, at the start, and
 * the plugin answers with the collection's TracePolicy: whether its
 * closures observe staleness, the edge rule that says which heap edges
 * are traced, deferred to the candidate queue, or poisoned, whether
 * finalizers run, and whether out-of-memory retries age the clock. The
 * tracer applies that rule itself and records its matches; the plugin
 * reads them after the in-use closure. A null plugin yields a plain
 * tracing collector.
 */

#ifndef LP_GC_PLUGIN_H
#define LP_GC_PLUGIN_H

#include <cstdint>
#include <optional>

#include "object/class_info.h"

namespace lp {

class EdgeTable;
class Tracer;

/** What the in-use closure does with a heap edge its rule matches. */
enum class EdgeAction : std::uint8_t {
    Trace,  //!< normal edge: tag it, mark and trace the target
    Defer,  //!< pruning candidate: tag it, skip it for now
    Poison, //!< prune: invalidate the reference, do not trace
};

/**
 * The edge rule of a classifying closure. An edge's fate depends only
 * on its source class, its target's class, the target's stale counter
 * at the start of the collection and the target's pinned bit, so a
 * rule over those is every decision a plugin makes per edge. An edge
 * matches iff
 *  - its target is not pinned;
 *  - the target's counter at start is at least minStale;
 *  - srcClass and tgtClass, where valid, are the edge's classes;
 *  - with a floor table, the counter at start is also at least the
 *    edge type's floors->maxStaleUse() plus minStale (probed only
 *    after the header tests pass).
 * The tracer records every match (Tracer::matches) and applies
 * onMatch to it; an edge that does not match is traced.
 */
struct EdgeRule {
    EdgeAction onMatch = EdgeAction::Trace;
    unsigned minStale = 0;
    class_id_t srcClass = kInvalidClassId;
    class_id_t tgtClass = kInvalidClassId;
    const EdgeTable *floors = nullptr; //!< per-type floor, if set
};

/** Summary of one completed collection, fed to plugin/state machine. */
struct CollectionOutcome {
    std::uint64_t epoch = 0;         //!< full-heap collection number
    std::size_t liveBytes = 0;       //!< bytes surviving the sweep
    std::size_t committedBytes = 0;  //!< space the allocator consumed
    std::size_t capacityBytes = 0;   //!< heap capacity
    std::uint64_t objectsMarked = 0;
    std::uint64_t refsPoisoned = 0;  //!< references poisoned this GC
    bool ticked = false;             //!< the staleness clock ticked
    //! Trigger bytes the pause drained from the thread caches, which
    //! the runtime adds to its allocation clock.
    std::uint64_t drainedBytes = 0;

    /**
     * How full the heap is, from the allocator's point of view. "When
     * an application exceeds the available heap memory ... is not well
     * defined because of collector and VM implementation details"
     * (paper Section 2); we define it as committed space over
     * capacity, since committed-but-fragmented space cannot serve
     * allocations any more than live space can.
     */
    double
    fullness() const
    {
        return capacityBytes ? static_cast<double>(committedBytes) /
                                   static_cast<double>(capacityBytes)
                             : 0.0;
    }
};

/**
 * Per-collection trace policy, published once per collection, so the
 * closure loop makes no virtual call. The staleness clock itself runs
 * inside the tracer (as in the paper, where the collector maintains
 * the stale bits). The plugin says whether its scheme observes
 * staleness at all; the collector says whether this collection counts
 * as program time (Collector::collect), and the clock ticks only when
 * both agree.
 */
struct TracePolicy {
    //! OBSERVE: set the stale-check bit on every traced reference and
    //! tick the staleness clock of every marked object.
    bool observe = false;
    bool recordMaxStale = false; //!< keep the highest ticked counter marked
    bool recordStubs = false;    //!< keep every stub word a scan passes
    //! The in-use closure's edge rule; without one every edge is traced.
    std::optional<EdgeRule> rule;
    //! May the sweep run finalizers on dead objects? Leak pruning's
    //! strict finalizer policy turns them off for the rest of the run
    //! once pruning has begun (paper Section 2).
    bool runFinalizers = true;
    /**
     * May an out-of-memory retry collection tick the staleness clock,
     * even though no program code ran since the last one?
     *
     * The allocation-driven clock freezes exactly when an exhausted
     * heap most needs idle objects to age toward the scheme's
     * threshold; without these ticks a scheme whose candidates were
     * all recently touched can deadlock into a spurious OOM. But
     * forced aging also pushes *live* briefly-idle objects past the
     * threshold, so it is only safe for schemes whose mispredictions
     * are recoverable (disk offload faults the object back in).
     * Pruning reclaims irrevocably and must keep the conservative
     * clock (paper Section 6.1).
     */
    bool ageThroughRetries = false;
};

/**
 * Collector extension interface. The collection hooks run inside the
 * stop-the-world pause on the one collector thread, one call at a
 * time, so they need no locking among themselves.
 */
class CollectionPlugin
{
  public:
    virtual ~CollectionPlugin() = default;

    /**
     * Start of collection number @p epoch (1-based): return the
     * collection's policy, the plugin's whole answer for it (what the
     * closures do, whether finalizers run, whether a retry ages the
     * clock).
     */
    virtual TracePolicy
    beginCollection(std::uint64_t epoch)
    {
        (void)epoch;
        return {};
    }

    /**
     * The in-use closure is complete; @p tracer holds its records
     * (matched edges, the highest counter, stub words), and deferred
     * candidates may now be processed (the SELECT state's stale
     * closure runs here).
     */
    virtual void afterInUseClosure(Tracer &tracer) { (void)tracer; }

    /** Collection finished; drive state-machine transitions here. */
    virtual void endCollection(const CollectionOutcome &outcome) { (void)outcome; }

    /**
     * Allocation of @p requested_bytes failed even after collection
     * number @p epoch, the @p rounds_so_far-th for this allocation: the
     * program is at the point where the VM would throw an
     * out-of-memory error. Record that, and answer whether the runtime
     * should collect again rather than throw. Tolerance schemes answer
     * yes while they can still free something.
     */
    virtual bool
    memoryExhausted(std::size_t requested_bytes, std::uint64_t epoch,
                    unsigned rounds_so_far)
    {
        (void)requested_bytes;
        (void)epoch;
        (void)rounds_so_far;
        return false;
    }
};

} // namespace lp

#endif // LP_GC_PLUGIN_H

/**
 * @file
 * The seam between the garbage collector and leak pruning.
 *
 * The paper implements leak pruning "almost exclusively in shared
 * [MMTk] code" by piggybacking on the collector's transitive closure.
 * We model that as a CollectionPlugin: the collector calls out at
 * well-defined points (collection start/end, every marked object,
 * every heap edge, after the in-use closure) and the plugin decides
 * whether an edge is traced, deferred to the candidate queue, or
 * poisoned. A null plugin yields a plain tracing collector.
 */

#ifndef LP_GC_PLUGIN_H
#define LP_GC_PLUGIN_H

#include <cstdint>

#include "object/class_info.h"
#include "object/ref.h"

namespace lp {

class Object;
class Tracer;

/** What the in-use closure should do with one heap edge. */
enum class EdgeAction : std::uint8_t {
    Trace,  //!< normal edge: tag it, mark and trace the target
    Defer,  //!< pruning candidate: skip for now (plugin recorded it)
    Poison, //!< prune: invalidate the reference, do not trace
};

/** Summary of one completed collection, fed to plugin/state machine. */
struct CollectionOutcome {
    std::uint64_t epoch = 0;         //!< full-heap collection number
    std::size_t liveBytes = 0;       //!< bytes surviving the sweep
    std::size_t committedBytes = 0;  //!< space the allocator consumed
    std::size_t capacityBytes = 0;   //!< heap capacity
    std::uint64_t objectsMarked = 0;
    std::uint64_t refsPoisoned = 0;  //!< references poisoned this GC

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
 * Per-collection trace policy, snapshotted by the tracer so the hot
 * closure loop pays no virtual calls for the common cases. The
 * staleness clock itself runs inside the tracer (as in the paper,
 * where the collector maintains the stale bits). The plugin says
 * whether its scheme ages objects at all; the collector says whether
 * this collection counts as program time (Collector::collect), and the
 * clock ticks only when both agree.
 */
struct TracePolicy {
    bool tagReferences = false;  //!< set stale-check bits on traced refs
    bool trackStaleness = false; //!< this scheme ages objects (the clock)
    bool classifyEdges = false;  //!< call classifyEdge per heap edge
    bool notifyMarked = false;   //!< call objectMarked per claimed object
    bool notifyInvalidRefs = false; //!< call invalidRefSeen per tagged ref
    std::uint64_t epoch = 0;     //!< collection number for the clock rule

    // The cheap reject rule of a classifying closure, read from the
    // source's class and the target's header alone: an edge it rejects
    // is traced without a classifyEdge call (Tracer::rejectsEdge). A
    // plugin may publish only rejections for which classifyEdge would
    // answer Trace and record nothing, so the rule changes no decision.
    // The defaults reject nothing.
    bool rejectPinned = false;  //!< reject edges into pinned targets
    unsigned minStale = 0;      //!< reject targets whose counter at start is below this
    class_id_t srcClass = kInvalidClassId; //!< if valid, reject edges out of other classes
    class_id_t tgtClass = kInvalidClassId; //!< if valid, reject edges into other classes
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

    /** Start of collection number @p epoch (1-based). */
    virtual void beginCollection(std::uint64_t epoch) { (void)epoch; }

    /** What the closure should do this collection. */
    virtual TracePolicy tracePolicy() const { return {}; }

    /** An object was claimed (only if policy.notifyMarked). */
    virtual void objectMarked(Object *obj) { (void)obj; }

    /**
     * A poisoned/stub reference was seen in a live object's slot
     * (only if policy.notifyInvalidRefs). The disk-offload baseline
     * uses this as its "disk GC" liveness scan: stub ids never seen
     * again have no referents left and their records can be freed.
     */
    virtual void invalidRefSeen(ref_t ref) { (void)ref; }

    /**
     * Classify one heap edge during the in-use closure.
     *
     * @param src source object, @p src_cls its class.
     * @param slot address of the reference slot (stable: non-moving
     *             heap, stopped world).
     * @param tgt decoded target object (non-null).
     */
    virtual EdgeAction
    classifyEdge(Object *src, const ClassInfo &src_cls, ref_t *slot, Object *tgt)
    {
        (void)src; (void)src_cls; (void)slot; (void)tgt;
        return EdgeAction::Trace;
    }

    /**
     * The in-use closure is complete; deferred candidates may now be
     * processed (the SELECT state's stale closure runs here).
     */
    virtual void afterInUseClosure(Tracer &tracer) { (void)tracer; }

    /** Collection finished; drive state-machine transitions here. */
    virtual void endCollection(const CollectionOutcome &outcome) { (void)outcome; }

    /**
     * May the sweep run finalizers this collection? Leak pruning's
     * strict finalizer policy turns them off for the rest of the run
     * once pruning has begun (paper Section 2).
     */
    virtual bool finalizersEnabled() const { return true; }

    /**
     * Allocation failed even after a collection: the program is at the
     * point where the VM would throw an out-of-memory error.
     */
    virtual void noteMemoryExhausted(std::size_t requested_bytes,
                                     std::uint64_t epoch)
    {
        (void)requested_bytes;
        (void)epoch;
    }

    /**
     * Should the runtime collect again rather than throw? Tolerance
     * schemes return true while they can still free something.
     */
    virtual bool shouldKeepCollecting(unsigned rounds_so_far) const
    {
        (void)rounds_so_far;
        return false;
    }

    /**
     * May the staleness clock keep ticking through out-of-memory retry
     * collections, even though no program code runs between them?
     *
     * The allocation-driven clock freezes exactly when an exhausted
     * heap most needs idle objects to age toward the scheme's
     * threshold; without exhaustion ticks a scheme whose candidates
     * were all recently touched can deadlock into a spurious OOM.
     * But forced aging also pushes *live* briefly-idle objects past
     * the threshold, so it is only safe for schemes whose
     * mispredictions are recoverable (disk offload faults the object
     * back in). Pruning reclaims irrevocably and must keep the
     * conservative clock (paper Section 6.1).
     */
    virtual bool agesUnderExhaustion() const { return false; }
};

} // namespace lp

#endif // LP_GC_PLUGIN_H

/**
 * @file
 * The transitive-closure engine ("the tracer").
 *
 * Implements the two closures of paper Section 4.2 as services. The
 * collector opens each collection with beginCollection(), which gives
 * the tracer the collection number and the clock decision once and
 * zeroes the collection's totals; every closure of the collection then
 * adds to those totals (stats()).
 *
 *  - traceFromRoots(): the in-use closure. Starts from the root set,
 *    marks reachable objects, sets the stale-check bit on every
 *    reference it traces, and applies the policy's edge rule to every
 *    heap edge, so leak pruning can defer candidates or poison
 *    selected ones.
 *
 *  - traceSubgraph(): the stale closure's workhorse. Marks everything
 *    (not already marked) reachable from one candidate target and
 *    returns the bytes this call claimed — the size of the stale data
 *    structure charged to its edge-table entry.
 *
 * Both closures run one scan-and-mark routine (scanObject) over one
 * LIFO gray stack; the TracePolicy a closure is given selects what the
 * routine does per edge (tag, apply the edge rule, keep stub words)
 * and per marked object (tick the staleness clock, keep the highest
 * counter). The rule (ruleMatches) reads the source class, the
 * target's header and, for a per-type floor, one edge-table probe; the
 * mark loop makes no virtual call. The records a collection leaves
 * (matches(), maxStaleMarked(), stubs()) are what the plugin reads
 * after the in-use closure; the next beginCollection() clears them.
 *
 * Every closure claims an object at discovery, with the heap's side
 * mark bitmap (Heap::tryMark), so only a first discovery is pushed and
 * the gray stack is bounded by marked objects, never by edges. drain
 * passes each popped object through a small FIFO ring that prefetches
 * its header and visits it as it leaves (the clock tick, the byte
 * tally, the highest counter), so the header is touched once, after
 * the prefetch.
 *
 * Trace order decides nothing. A classifying closure reads a target's
 * stale counter as it stood when the collection began
 * (Object::staleCounterAtStart), whether or not the target has been
 * visited yet, and leak pruning's stale closure charges shared
 * subgraphs in edge-type order, not trace order. What a closure leaves
 * behind (the marked set, one clock tick per marked object, tags,
 * byte tallies, the set of matched edges, poisoned slots, the highest
 * counter, the multiset of stub words seen) is the same in any
 * order.
 *
 * Both run on the one collector thread, inside the stop-the-world
 * pause. The paper's MMTk collector runs them on several threads
 * (Section 4.5); at this repository's heap sizes a second collector
 * thread roughly doubled the mark time, so the closures are serial
 * (DESIGN.md "Known deviations: serial collector"). Being the only
 * thread running, the collector sets mark bits and ticks clocks with
 * plain loads and stores: the mark loop executes no locked
 * instruction.
 */

#ifndef LP_GC_TRACER_H
#define LP_GC_TRACER_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gc/plugin.h"
#include "object/class_info.h"
#include "object/ref.h"
#include "util/function_ref.h"

namespace lp {

class Heap;
class Object;

/**
 * Enumerates the root set: stacks/registers (handles) and statics
 * (global roots). Implemented by the VM layer.
 */
class RootProvider
{
  public:
    virtual ~RootProvider() = default;

    /** Invoke @p fn on the address of every root reference slot. */
    virtual void forEachRoot(FunctionRef<void(ref_t *)> fn) = 0;
};

/** One edge the policy's rule matched, recorded by the in-use closure. */
struct EdgeMatch {
    ref_t *slot;         //!< the reference slot (stable: non-moving heap)
    class_id_t srcClass; //!< the source object's class
    Object *target;      //!< the decoded target
};

/** One collection's closure totals, summed over all its closures. */
struct TraceStats {
    std::uint64_t objectsMarked = 0;
    std::uint64_t refsPoisoned = 0;
    std::uint64_t bytesMarked = 0; //!< sizes of the objects marked
};

class Tracer
{
  public:
    /**
     * @param heap owns the side mark bitmaps the closures claim in.
     * @param registry class layouts for slot iteration.
     */
    Tracer(Heap &heap, const ClassRegistry &registry);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Open collection number @p epoch: clear the last collection's
     * records and totals, and take the collector's clock decision
     * (@p tick: whether this collection counts as program time). A
     * closure ticks the staleness clock iff @p tick holds and its
     * policy observes.
     */
    void beginCollection(std::uint64_t epoch, bool tick);

    /**
     * Run the in-use closure: mark everything reachable from @p roots,
     * as @p policy says. Must run with the world stopped, after
     * beginCollection.
     */
    void traceFromRoots(RootProvider &roots, const TracePolicy &policy);

    /**
     * Mark the subgraph rooted at @p start during the in-progress
     * collection (after traceFromRoots), claiming
     * only objects not already marked, and return the bytes claimed
     * (0 when @p start was already marked).
     * @p policy selects the per-edge and per-object work as in the
     * in-use closure, but carries no edge rule: every edge inside the
     * subgraph is traced. The objects it marks count in the
     * collection's totals. Must run with the world stopped.
     */
    std::uint64_t traceSubgraph(Object *start, const TracePolicy &policy);

    /** The running collection's totals so far, over all its closures. */
    const TraceStats &stats() const { return stats_; }

    //! Gray-stack capacity (in objects) kept for the next closure; a
    //! larger stack is freed when its closure ends, so a closure that
    //! once held many objects gray does not pin that memory for the
    //! runtime's lifetime. The record lists are trimmed to the same
    //! length when the next collection clears them.
    static constexpr std::size_t kRetainedGrayCapacity = 16 * 1024;

    //! Gray-stack capacity held between closures (at most
    //! kRetainedGrayCapacity).
    std::size_t grayCapacity() const { return gray_.capacity(); }

    /**
     * Does @p rule match the edge from an object of class @p src_cls
     * to @p tgt in the running collection? Reads @p tgt's header and,
     * for a per-type floor, probes the edge table.
     */
    bool ruleMatches(const EdgeRule &rule, class_id_t src_cls,
                     const Object *tgt) const;

    // --- the running collection's records (see TracePolicy) ---------------

    /**
     * The edges the in-use closure's rule matched, in trace order. A
     * plugin may reorder them (the stale closure sorts them by edge
     * type).
     */
    std::span<EdgeMatch> matches() { return matches_; }

    /** The highest counter a marked object held after its tick. */
    unsigned maxStaleMarked() const { return max_stale_marked_; }

    /** Every stub (poisoned) word the closures' scans passed. */
    const std::vector<ref_t> &stubs() const { return stubs_; }

  private:
    //! Gray objects kept in flight: each one's header is prefetched
    //! this many objects before it is visited. On a 4-vCPU Xeon host,
    //! 4 and 8 measured alike on leak_server and 16 measured no better
    //! than visiting at discovery.
    static constexpr std::size_t kPrefetchDepth = 8;

    /**
     * The scan-and-mark routine both closures share: visit @p obj's
     * reference slots and, as @p policy says, classify each edge, tag
     * traced references and shade their targets.
     */
    void scanObject(Object *obj, const TracePolicy &policy);

    /** Claim @p obj and, if this call claimed it, push it gray. */
    void shade(Object *obj);

    /**
     * Header work for an object this closure marked, once: tick its
     * staleness clock, tally it and, if asked, keep its counter.
     */
    void onMarked(Object *obj, const TracePolicy &policy);

    /**
     * Scan gray objects to empty: pop the newest, pass it through the
     * prefetch ring and visit and scan it as it leaves.
     */
    void drain(const TracePolicy &policy);

    //! Set the per-closure state that @p policy implies.
    void beginClosure(const TracePolicy &policy);

    Heap &heap_;
    const ClassRegistry &registry_;
    //! The running closure's stale-clock limit: a visit raises a stale
    //! counter k to k+1 iff k < tick_below_ (0 when the clock is off).
    unsigned tick_below_ = 0;
    //! The running collection's limit for closures that observe: set
    //! by beginCollection from the epoch and the clock decision.
    unsigned collection_tick_below_ = 0;
    //! The running collection's number, whose parity stamps each tick.
    std::uint64_t epoch_ = 0;
    //! The running collection's totals.
    TraceStats stats_;
    //! The running closure's gray objects, newest last (empty between
    //! closures).
    std::vector<Object *> gray_;
    //! The running collection's records.
    std::vector<EdgeMatch> matches_;
    unsigned max_stale_marked_ = 0;
    std::vector<ref_t> stubs_;
};

} // namespace lp

#endif // LP_GC_TRACER_H

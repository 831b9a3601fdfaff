/**
 * @file
 * The transitive-closure engine ("the tracer").
 *
 * Implements the two closures of paper Section 4.2 as services:
 *
 *  - traceFromRoots(): the in-use closure. Starts from the root set,
 *    marks reachable objects, sets the stale-check bit on every
 *    reference it traces, and consults the CollectionPlugin per edge
 *    so leak pruning can defer candidates or poison selected ones.
 *
 *  - traceSubgraph(): the stale closure's workhorse. Marks everything
 *    (not already marked) reachable from one candidate target and
 *    returns the bytes this call claimed — the size of the stale data
 *    structure charged to its edge-table entry.
 *
 * Both closures run one scan-and-mark routine (scanObject) over one
 * LIFO gray stack; the TracePolicy a closure is given selects what the
 * routine does per edge (tag, classify, notify) and per marked object
 * (tick the staleness clock, notify). A classifying closure first
 * applies the policy's reject rule (rejectsEdge) to the source class
 * and the target's header, and calls the plugin's virtual classifyEdge
 * only for an edge the rule cannot reject.
 *
 * Every closure claims an object at discovery, with the heap's side
 * mark bitmap (Heap::tryMark), so only a first discovery is pushed and
 * the gray stack is bounded by marked objects, never by edges. drain
 * passes each popped object through a small FIFO ring that prefetches
 * its header and visits it as it leaves (the clock tick, the byte
 * tally, the plugin's notification), so the header is touched once,
 * after the prefetch.
 *
 * Trace order decides nothing. A classifying closure reads a target's
 * stale counter as it stood when the collection began
 * (Object::staleCounterAtStart), whether or not the target has been
 * visited yet, and leak pruning's stale closure charges shared
 * subgraphs in edge-type order, not trace order. What a closure leaves
 * behind (the marked set, one clock tick per marked object, tags,
 * byte tallies, candidates, poisoned slots, the set of stub words
 * seen) is the same in any order.
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

/** Counters from one closure run. */
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
     * Run the in-use closure: mark everything reachable from
     * @p roots, classifying edges through @p plugin (may be null).
     * Must run with the world stopped.
     */
    TraceStats traceFromRoots(RootProvider &roots, CollectionPlugin *plugin);

    /**
     * Mark the subgraph rooted at @p start during the in-progress
     * collection (after traceFromRoots), claiming
     * only objects not already marked, and return the bytes claimed
     * (0 when @p start was already marked).
     * @p policy selects the per-edge and per-object work as in the
     * in-use closure; the caller passes it with classifyEdges off, as
     * every edge inside the subgraph is traced. The objects and edges
     * visited fold into @p stats. Must run with the world stopped.
     */
    std::uint64_t traceSubgraph(Object *start, CollectionPlugin *plugin,
                                const TracePolicy &policy, TraceStats &stats);

    /**
     * Fold closure work a plugin performed outside traceFromRoots
     * (e.g. its stale-closure tallies) into this collection's totals;
     * the collector drains them with takeExtraStats() after the plugin
     * phase.
     */
    void addClosureStats(const TraceStats &stats);

    /** Drain the stats accumulated through addClosureStats(). */
    TraceStats takeExtraStats();

    /**
     * May the closures of the collection about to run tick the
     * staleness clock? The collector decides once per collection
     * (Collector::collect); a closure ticks iff this holds and its
     * policy's trackStaleness does. True until set.
     */
    void setClockTicks(bool ticks) { clock_ticks_ = ticks; }

    const ClassRegistry &registry() const { return registry_; }

    //! Gray-stack capacity (in objects) kept for the next closure; a
    //! larger stack is freed when its closure ends, so a closure that
    //! once held many objects gray does not pin that memory for the
    //! runtime's lifetime.
    static constexpr std::size_t kRetainedGrayCapacity = 16 * 1024;

    //! Gray-stack capacity held between closures (at most
    //! kRetainedGrayCapacity).
    std::size_t grayCapacity() const { return gray_.capacity(); }

    /**
     * Does @p policy's cheap reject rule reject the edge from an
     * object of class @p src_cls to @p tgt? A classifying closure
     * traces a rejected edge without calling classifyEdge. Reads only
     * @p tgt's header.
     */
    static bool rejectsEdge(const TracePolicy &policy, class_id_t src_cls,
                            const Object *tgt);

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
    void scanObject(Object *obj, CollectionPlugin *plugin,
                    const TracePolicy &policy, TraceStats &stats);

    /** Claim @p obj and, if this call claimed it, push it gray. */
    void shade(Object *obj);

    /**
     * Header work for an object this closure marked, once: tick its
     * staleness clock, tally it and report it to the plugin if asked.
     */
    void onMarked(Object *obj, CollectionPlugin *plugin,
                  const TracePolicy &policy, TraceStats &stats);

    /**
     * Scan gray objects to empty: pop the newest, pass it through the
     * prefetch ring and visit and scan it as it leaves.
     */
    void drain(CollectionPlugin *plugin, const TracePolicy &policy,
               TraceStats &stats);

    //! Set the per-closure state that @p policy implies.
    void beginClosure(const TracePolicy &policy);

    Heap &heap_;
    const ClassRegistry &registry_;
    //! The running closure's stale-clock limit: a visit raises a stale
    //! counter k to k+1 iff k < tick_below_ (0 when the clock is off).
    unsigned tick_below_ = 0;
    //! The running collection's number, whose parity stamps each tick.
    std::uint64_t epoch_ = 0;
    //! The collector's clock decision for the running collection.
    bool clock_ticks_ = true;
    //! Closure work plugins report via addClosureStats().
    TraceStats extra_;
    //! The running closure's gray objects, newest last (empty between
    //! closures).
    std::vector<Object *> gray_;
};

} // namespace lp

#endif // LP_GC_TRACER_H

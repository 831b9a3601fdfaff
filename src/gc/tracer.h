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
 * gray stack of fixed-size batches; the TracePolicy a closure is given
 * selects what the routine does per edge (tag, classify, notify) and
 * per marked object (tick the staleness clock, notify).
 *
 * Every closure claims an object at discovery, with the heap's side
 * mark bitmap (Heap::tryMark), so only a first discovery is pushed and
 * the gray stack is bounded by marked objects, never by edges. The
 * policy picks when the object's header is visited (the clock tick,
 * the byte tally, the plugin's notification):
 *
 *  - At discovery, when the closure classifies edges (leak pruning's
 *    SELECT and PRUNE, disk offload's offloading collections). Their
 *    decisions read trace order: classifyEdge sees a target's stale
 *    counter before or after the tick, and the first candidate to
 *    reach a shared subgraph is charged for it. So these closures keep
 *    the pinned batch order (the newest batch drains to empty before
 *    the next is taken) that AppsTest.EclipseCpPruneLogIsPinned pins.
 *    ROADMAP item 1 makes decisions independent of this order.
 *
 *  - At scan, in every other closure. A claimed target is pushed onto
 *    the batch being drained (plain LIFO); drain passes each popped
 *    object through a small FIFO ring that prefetches its header, and
 *    visits it as it leaves, so the header is touched once, after the
 *    prefetch. Such a closure decides nothing, and what it leaves
 *    behind (the marked set, one clock tick per marked object, tags,
 *    byte tallies, the set of stub words seen) is the same in any
 *    order.
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
#include <functional>
#include <vector>

#include "gc/plugin.h"
#include "object/class_info.h"
#include "object/ref.h"

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
    virtual void forEachRoot(const std::function<void(ref_t *)> &fn) = 0;
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

    ~Tracer();

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

    const ClassRegistry &registry() const { return registry_; }

    //! Empty gray batches kept for the next closure; the rest are freed
    //! when a closure ends, so a closure that once held many objects
    //! gray does not pin their batches for the runtime's lifetime.
    static constexpr std::size_t kRetainedChunks = 64;

    //! Empty gray batches held between closures (at most kRetainedChunks).
    std::size_t retainedChunks() const { return spare_.size(); }

  private:
    /** Fixed-size batch of gray objects. */
    struct WorkChunk {
        static constexpr std::size_t kCapacity = 256;
        std::size_t count = 0;
        Object *items[kCapacity];

        bool full() const { return count == kCapacity; }
        bool empty() const { return count == 0; }
        void push(Object *o) { items[count++] = o; }
        Object *pop() { return items[--count]; }
    };

    //! Gray objects a visit-at-scan closure keeps in flight: each one's
    //! header is prefetched this many objects before it is visited.
    //! On a 4-vCPU Xeon host, 4 and 8 measured alike on leak_server
    //! and 16 measured no better than claiming at discovery.
    static constexpr std::size_t kPrefetchDepth = 8;

    /**
     * The scan-and-mark routine both closures share: visit @p obj's
     * reference slots and, as @p policy says, classify each edge, tag
     * traced references and shade their targets onto @p out.
     */
    void scanObject(Object *obj, CollectionPlugin *plugin,
                    const TracePolicy &policy, WorkChunk *&out,
                    TraceStats &stats);

    /**
     * Claim @p obj and, if this call claimed it, make it gray: push it
     * onto @p out, visiting it first (onMarked) unless the closure
     * visits at scan.
     */
    void shade(Object *obj, CollectionPlugin *plugin,
               const TracePolicy &policy, WorkChunk *&out,
               TraceStats &stats);

    /**
     * Header work for an object this closure marked, once: tick its
     * staleness clock, tally it and report it to the plugin if asked.
     */
    void onMarked(Object *obj, CollectionPlugin *plugin,
                  const TracePolicy &policy, TraceStats &stats);

    /**
     * Scan the seeded batch @p seeded, then every gray batch, to
     * empty; the newest batch is drained before an older one is taken.
     * A visit-at-scan closure pushes onto the batch it drains, passes
     * each popped object through the prefetch ring and visits it as it
     * leaves.
     */
    void drain(CollectionPlugin *plugin, const TracePolicy &policy,
               WorkChunk *seeded, TraceStats &stats);

    //! The next gray object in batch order, or null when none is left;
    //! @p in is the batch being drained, @p out the one being filled.
    Object *nextGray(WorkChunk *&in, WorkChunk *&out);

    //! Set the per-closure state that @p policy implies.
    void beginClosure(const TracePolicy &policy);
    //! Next empty chunk: from the spare list, else a new one.
    WorkChunk *takeChunk();
    //! Move a full (or input-drained) output chunk onto the gray stack.
    void pushGray(WorkChunk *&out);
    //! Push @p obj onto @p out, moving a full @p out onto the stack.
    void pushObject(WorkChunk *&out, Object *obj);

    Heap &heap_;
    const ClassRegistry &registry_;
    //! The running closure's stale-clock limit: a claim raises a stale
    //! counter k to k+1 iff k < tick_below_ (0 when the clock is off).
    unsigned tick_below_ = 0;
    //! The running closure visits headers at scan, through the prefetch
    //! ring, rather than at discovery: it classifies no edge.
    bool visit_at_scan_ = false;
    //! Closure work plugins report via addClosureStats().
    TraceStats extra_;
    //! The running closure's gray objects, in batches (empty between
    //! closures). The newest batch is drained before an older one is
    //! taken; in a classifying in-use closure this visit order decides
    //! which candidate first reaches a shared stale subgraph, and so
    //! which edge type selection picks.
    std::vector<WorkChunk *> gray_;
    //! Drained batches, reused across closures (up to kRetainedChunks)
    //! so the steady state allocates nothing on the closure's hot path.
    std::vector<WorkChunk *> spare_;
};

} // namespace lp

#endif // LP_GC_TRACER_H

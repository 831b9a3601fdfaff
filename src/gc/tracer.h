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
 *  - traceSubgraphCounting(): the stale closure's workhorse. Marks
 *    everything (not already marked) reachable from one candidate
 *    target, returning the bytes this call claimed — the size of the
 *    stale data structure charged to its edge-table entry.
 *
 * Both run on the one collector thread, inside the stop-the-world
 * pause. The paper's MMTk collector runs them on several threads
 * (Section 4.5); at this repository's heap sizes a second collector
 * thread roughly doubled the mark time, so the closures are serial
 * (DESIGN.md "Known deviations: serial collector").
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
    std::uint64_t edgesVisited = 0;
    std::uint64_t refsPoisoned = 0;
    std::uint64_t edgesDeferred = 0;
};

class Tracer
{
  public:
    /**
     * @param heap marked objects are reported to the heap's mark-time
     *        byte accounting (Heap::noteMarked).
     * @param registry class layouts for slot iteration.
     */
    Tracer(Heap &heap, const ClassRegistry &registry);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    ~Tracer();

    /**
     * Run the in-use closure: mark everything reachable from
     * @p roots with @p mark_parity (the collection's trace parity,
     * one ahead of the heap's live parity), classifying edges through
     * @p plugin (may be null). Must run with the world stopped.
     */
    TraceStats traceFromRoots(RootProvider &roots, CollectionPlugin *plugin,
                              unsigned mark_parity);

    /**
     * Serially mark the subgraph rooted at @p start, claiming objects
     * not already marked (at the parity of the in-progress
     * collection), and return the bytes claimed — folding the objects
     * and edges visited into @p stats so stale-closure work shows up
     * in the collection totals. Reference slots inside the subgraph
     * are stale-check tagged like any traced reference.
     */
    std::uint64_t traceSubgraphCounting(Object *start,
                                        CollectionPlugin *plugin,
                                        TraceStats &stats);

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

    /**
     * Scan one gray object: visit its reference slots, classify each
     * edge, tag traced references, and push newly claimed targets onto
     * @p out, which moves to the gray stack when it fills.
     */
    void scanObject(Object *obj, CollectionPlugin *plugin,
                    const TracePolicy &policy, WorkChunk *&out,
                    TraceStats &stats);

    /** Per-claim bookkeeping (staleness clock, plugin notification). */
    void onMarked(Object *obj, CollectionPlugin *plugin,
                  const TracePolicy &policy);

    //! Next empty chunk: from the spare list, else a new one.
    WorkChunk *takeChunk();
    //! Move a full (or input-drained) output chunk onto the gray stack.
    void pushGray(WorkChunk *&out);

    Heap &heap_;
    const ClassRegistry &registry_;
    TracePolicy policy_; //!< policy of the in-progress collection
    unsigned trace_parity_ = 1; //!< parity of the in-progress collection
    //! Closure work plugins report via addClosureStats().
    TraceStats extra_;
    //! The in-use closure's gray objects, in batches. The newest batch
    //! is drained before an older one is taken; this visit order
    //! decides which candidate first reaches a shared stale subgraph,
    //! and so which edge type selection picks.
    std::vector<WorkChunk *> gray_;
    //! Drained batches, reused across collections so the steady state
    //! allocates nothing on the closure's hot path.
    std::vector<WorkChunk *> spare_;
};

} // namespace lp

#endif // LP_GC_TRACER_H

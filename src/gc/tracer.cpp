#include "gc/tracer.h"

#include <utility>
#include <vector>

#include "heap/heap.h"
#include "object/object.h"
#include "util/logging.h"

namespace lp {

namespace {

/**
 * The logarithmic staleness clock (paper Section 4.1): collection i
 * increments a counter holding k iff 2^k divides i, so a counter of k
 * means "last used about 2^k collections ago". Runs in the collector,
 * on every object it marks, exactly as in the paper.
 */
inline void
advanceStaleClock(Object *obj, std::uint64_t epoch)
{
    const unsigned k = obj->staleCounter();
    if (k < kMaxStaleCounter && (epoch & ((std::uint64_t{1} << k) - 1)) == 0)
        obj->setStaleCounterTraced(k + 1);
}

} // namespace

Tracer::Tracer(Heap &heap, const ClassRegistry &registry)
    : heap_(heap), registry_(registry)
{}

Tracer::~Tracer()
{
    for (WorkChunk *chunk : spare_)
        delete chunk;
}

Tracer::WorkChunk *
Tracer::takeChunk()
{
    if (spare_.empty())
        return new WorkChunk;
    WorkChunk *chunk = spare_.back();
    spare_.pop_back();
    return chunk;
}

void
Tracer::pushGray(WorkChunk *&out)
{
    gray_.push_back(out);
    out = takeChunk();
}

void
Tracer::onMarked(Object *obj, CollectionPlugin *plugin,
                 const TracePolicy &policy)
{
    heap_.noteMarked(obj);
    if (policy.trackStaleness)
        advanceStaleClock(obj, policy.epoch);
    if (policy.notifyMarked)
        plugin->objectMarked(obj);
}

void
Tracer::scanObject(Object *obj, CollectionPlugin *plugin,
                   const TracePolicy &policy, WorkChunk *&out,
                   TraceStats &stats)
{
    const ClassInfo &cls = registry_.info(obj->classId());
    obj->forEachRefSlot(cls, [&](ref_t *slot) {
        const ref_t r = *slot;
        if (refIsNull(r))
            return;
        ++stats.edgesVisited;
        if (refIsPoisoned(r)) {
            // Pruned (or offloaded) in an earlier GC: never traced.
            if (policy.notifyInvalidRefs)
                plugin->invalidRefSeen(r);
            return;
        }
        Object *tgt = refTarget(r);
        EdgeAction action = EdgeAction::Trace;
        if (policy.classifyEdges)
            action = plugin->classifyEdge(obj, cls, slot, tgt);
        switch (action) {
          case EdgeAction::Trace:
            // Avoid the store when the tag survived from an earlier
            // collection (the barrier only clears it on use).
            if (policy.tagReferences && !refHasStaleCheck(r))
                *slot = refWithStaleCheck(r);
            if (tgt->tryMarkFor(trace_parity_)) {
                ++stats.objectsMarked;
                onMarked(tgt, plugin, policy);
                if (out->full())
                    pushGray(out);
                out->push(tgt);
            }
            break;
          case EdgeAction::Defer:
            // The plugin recorded (slot, src class, target) in its
            // candidate queue; the stale closure deals with it later.
            // The reference still gets the stale-check tag: if the
            // program uses it before the PRUNE collection, the barrier
            // resets the target's staleness and the edge escapes
            // pruning.
            if (policy.tagReferences && !refHasStaleCheck(r))
                *slot = refWithStaleCheck(r);
            ++stats.edgesDeferred;
            break;
          case EdgeAction::Poison:
            *slot = refPoisoned(r);
            ++stats.refsPoisoned;
            break;
        }
    });
}

TraceStats
Tracer::traceFromRoots(RootProvider &roots, CollectionPlugin *plugin,
                       unsigned mark_parity)
{
    LP_ASSERT(gray_.empty(), "gray stack not drained by the last closure");
    const TracePolicy policy = plugin ? plugin->tracePolicy() : TracePolicy{};
    policy_ = policy;               // remembered for traceSubgraphCounting
    trace_parity_ = mark_parity & 1; // likewise

    // Seed the gray stack from the root set (stacks/registers +
    // statics).
    TraceStats stats;
    WorkChunk *out = takeChunk();
    roots.forEachRoot([&](ref_t *slot) {
        const ref_t r = *slot;
        if (refIsNull(r) || refIsPoisoned(r))
            return;
        Object *tgt = refTarget(r);
        if (tgt->tryMarkFor(trace_parity_)) {
            ++stats.objectsMarked;
            onMarked(tgt, plugin, policy);
            if (out->full())
                pushGray(out);
            out->push(tgt);
        }
    });
    if (!out->empty())
        pushGray(out);

    // Drain the newest batch to empty before taking the next one; the
    // output batch joins the stack when it fills or its input empties.
    while (!gray_.empty()) {
        WorkChunk *in = gray_.back();
        gray_.pop_back();
        while (!in->empty())
            scanObject(in->pop(), plugin, policy, out, stats);
        if (!out->empty())
            pushGray(out);
        spare_.push_back(in);
    }
    spare_.push_back(out);
    return stats;
}

std::uint64_t
Tracer::traceSubgraphCounting(Object *start, CollectionPlugin *plugin,
                              TraceStats &stats)
{
    const TracePolicy &policy = policy_;
    if (!start->tryMarkFor(trace_parity_))
        return 0; // already live via another path (or another candidate)
    ++stats.objectsMarked;
    onMarked(start, plugin, policy);

    std::uint64_t bytes = 0;
    std::vector<Object *> stack;
    stack.push_back(start);
    while (!stack.empty()) {
        Object *obj = stack.back();
        stack.pop_back();
        bytes += obj->sizeBytes();
        const ClassInfo &cls = registry_.info(obj->classId());
        obj->forEachRefSlot(cls, [&](ref_t *slot) {
            const ref_t r = *slot;
            if (refIsNull(r))
                return;
            ++stats.edgesVisited;
            if (refIsPoisoned(r))
                return;
            if (policy.tagReferences && !refHasStaleCheck(r))
                *slot = refWithStaleCheck(r);
            Object *tgt = refTarget(r);
            if (tgt->tryMarkFor(trace_parity_)) {
                ++stats.objectsMarked;
                onMarked(tgt, plugin, policy);
                stack.push_back(tgt);
            }
        });
    }
    return bytes;
}

void
Tracer::addClosureStats(const TraceStats &stats)
{
    extra_.objectsMarked += stats.objectsMarked;
    extra_.edgesVisited += stats.edgesVisited;
}

TraceStats
Tracer::takeExtraStats()
{
    return std::exchange(extra_, TraceStats{});
}

} // namespace lp

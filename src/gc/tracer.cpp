#include "gc/tracer.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "heap/heap.h"
#include "object/object.h"
#include "util/logging.h"

namespace lp {

namespace {

/**
 * The logarithmic staleness clock (paper Section 4.1): collection i
 * increments a counter holding k iff 2^k divides i, so a counter of k
 * means "last used about 2^k collections ago". 2^k divides i exactly
 * when k <= ctz(i), so the rule is one compare per marked object:
 * tick iff k < this limit. The collector's claim (Object::tryMarkFor)
 * applies it to every object it marks, exactly as in the paper.
 */
unsigned
staleTickLimit(const TracePolicy &policy)
{
    if (!policy.trackStaleness)
        return 0;
    const auto divides = static_cast<unsigned>(std::countr_zero(policy.epoch));
    return std::min(divides + 1, kMaxStaleCounter);
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
                 const TracePolicy &policy, WorkChunk *&out,
                 TraceStats &stats)
{
    ++stats.objectsMarked;
    stats.bytesMarked += obj->sizeBytes();
    heap_.noteMarked(obj);
    if (policy.notifyMarked)
        plugin->objectMarked(obj);
    if (out->full())
        pushGray(out);
    out->push(obj);
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
            if (tgt->tryMarkFor(trace_parity_, tick_below_))
                onMarked(tgt, plugin, policy, out, stats);
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
            break;
          case EdgeAction::Poison:
            *slot = refPoisoned(r);
            ++stats.refsPoisoned;
            break;
        }
    });
}

void
Tracer::drain(CollectionPlugin *plugin, const TracePolicy &policy,
              WorkChunk *out, TraceStats &stats)
{
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
}

TraceStats
Tracer::traceFromRoots(RootProvider &roots, CollectionPlugin *plugin,
                       unsigned mark_parity)
{
    LP_ASSERT(gray_.empty(), "gray stack not drained by the last closure");
    const TracePolicy policy = plugin ? plugin->tracePolicy() : TracePolicy{};
    trace_parity_ = mark_parity & 1; // remembered for traceSubgraph
    tick_below_ = staleTickLimit(policy);

    // Seed the gray stack from the root set (stacks/registers +
    // statics).
    TraceStats stats;
    WorkChunk *out = takeChunk();
    roots.forEachRoot([&](ref_t *slot) {
        const ref_t r = *slot;
        if (refIsNull(r) || refIsPoisoned(r))
            return;
        Object *tgt = refTarget(r);
        if (tgt->tryMarkFor(trace_parity_, tick_below_))
            onMarked(tgt, plugin, policy, out, stats);
    });
    drain(plugin, policy, out, stats);
    return stats;
}

std::uint64_t
Tracer::traceSubgraph(Object *start, CollectionPlugin *plugin,
                      const TracePolicy &policy, TraceStats &stats)
{
    tick_below_ = staleTickLimit(policy);
    if (!start->tryMarkFor(trace_parity_, tick_below_))
        return 0; // already live via another path (or another candidate)
    const std::uint64_t before = stats.bytesMarked;
    WorkChunk *out = takeChunk();
    onMarked(start, plugin, policy, out, stats);
    drain(plugin, policy, out, stats);
    return stats.bytesMarked - before;
}

void
Tracer::addClosureStats(const TraceStats &stats)
{
    extra_.objectsMarked += stats.objectsMarked;
}

TraceStats
Tracer::takeExtraStats()
{
    return std::exchange(extra_, TraceStats{});
}

} // namespace lp

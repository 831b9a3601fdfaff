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
 * tick iff k < this limit. The tracer applies it once to every object
 * it marks (Object::tickStaleCounter), exactly as in the paper.
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

void
Tracer::beginClosure(const TracePolicy &policy)
{
    tick_below_ = clock_ticks_ ? staleTickLimit(policy) : 0;
    epoch_ = policy.epoch;
}

// The mark loop's helpers (onMarked, shade) are declared inline so
// that each edge and each gray object costs no call of its own: out of
// line, they cost oom_horizon about 9% of its requests per second on a
// 4-vCPU Xeon host.
inline void
Tracer::onMarked(Object *obj, CollectionPlugin *plugin,
                 const TracePolicy &policy, TraceStats &stats)
{
    obj->tickStaleCounter(tick_below_, epoch_);
    ++stats.objectsMarked;
    stats.bytesMarked += obj->sizeBytes();
    if (policy.notifyMarked)
        plugin->objectMarked(obj);
}

inline void
Tracer::shade(Object *obj)
{
    // Claim at discovery, in the side bitmap, so only a first
    // discovery is pushed; the header is visited at ring exit.
    if (heap_.tryMark(obj))
        gray_.push_back(obj);
}

void
Tracer::scanObject(Object *obj, CollectionPlugin *plugin,
                   const TracePolicy &policy, TraceStats &stats)
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
            shade(tgt);
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
              TraceStats &stats)
{
    // Each popped object waits in the prefetch ring, which loads its
    // header while the objects ahead of it are scanned, and is visited
    // as it leaves. A scanned object's targets are pushed, so they
    // enter the ring next.
    Object *ring[kPrefetchDepth];
    std::size_t ring_head = 0;
    std::size_t ring_count = 0;
    while (true) {
        Object *obj;
        if (!gray_.empty()) {
            obj = gray_.back();
            gray_.pop_back();
            __builtin_prefetch(obj);
            if (ring_count < kPrefetchDepth) {
                ring[(ring_head + ring_count++) % kPrefetchDepth] = obj;
                continue;
            }
            // Full: the newest entry takes the oldest one's place.
            std::swap(obj, ring[ring_head]);
        } else if (ring_count > 0) {
            obj = ring[ring_head];
            --ring_count;
        } else {
            break;
        }
        ring_head = (ring_head + 1) % kPrefetchDepth;
        onMarked(obj, plugin, policy, stats);
        scanObject(obj, plugin, policy, stats);
    }
    if (gray_.capacity() > kRetainedGrayCapacity) {
        std::vector<Object *>().swap(gray_);
        gray_.reserve(kRetainedGrayCapacity);
    }
}

TraceStats
Tracer::traceFromRoots(RootProvider &roots, CollectionPlugin *plugin)
{
    LP_ASSERT(gray_.empty(), "gray stack not drained by the last closure");
    const TracePolicy policy = plugin ? plugin->tracePolicy() : TracePolicy{};
    beginClosure(policy);
    // Seed the gray stack from the root set (stacks/registers +
    // statics).
    roots.forEachRoot([&](ref_t *slot) {
        const ref_t r = *slot;
        if (!refIsNull(r) && !refIsPoisoned(r))
            shade(refTarget(r));
    });
    TraceStats stats;
    drain(plugin, policy, stats);
    return stats;
}

std::uint64_t
Tracer::traceSubgraph(Object *start, CollectionPlugin *plugin,
                      const TracePolicy &policy, TraceStats &stats)
{
    beginClosure(policy);
    // A start object already live via another path (or an earlier
    // candidate) is not claimed again, so the call returns 0.
    const std::uint64_t before = stats.bytesMarked;
    shade(start);
    drain(plugin, policy, stats);
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

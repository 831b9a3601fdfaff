#include "gc/tracer.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "gc/edge_table.h"
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

/**
 * Empty @p list, freeing its storage if a past collection grew it
 * beyond kRetainedGrayCapacity entries.
 */
template <typename T>
void
clearTrimmed(std::vector<T> &list)
{
    if (list.capacity() > Tracer::kRetainedGrayCapacity)
        std::vector<T>().swap(list);
    else
        list.clear();
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
Tracer::onMarked(Object *obj, const TracePolicy &policy, TraceStats &stats)
{
    obj->tickStaleCounter(tick_below_, epoch_);
    ++stats.objectsMarked;
    stats.bytesMarked += obj->sizeBytes();
    if (policy.recordMaxStale)
        max_stale_marked_ = std::max(max_stale_marked_, obj->staleCounter());
}

inline void
Tracer::shade(Object *obj)
{
    // Claim at discovery, in the side bitmap, so only a first
    // discovery is pushed; the header is visited at ring exit.
    if (heap_.tryMark(obj))
        gray_.push_back(obj);
}

bool
Tracer::ruleMatches(const TracePolicy &policy, class_id_t src_cls,
                    const Object *tgt)
{
    const EdgeRule &rule = *policy.rule;
    if (rule.srcClass != kInvalidClassId && src_cls != rule.srcClass)
        return false;
    if (rule.tgtClass != kInvalidClassId && tgt->classId() != rule.tgtClass)
        return false;
    // The counter is read as it stood when the collection began, so
    // the answer does not depend on whether the target was visited yet.
    const unsigned stale = tgt->staleCounterAtStart(policy.epoch);
    if (stale < rule.minStale || tgt->pinned())
        return false;
    return !rule.floors ||
           stale >= rule.floors->maxStaleUse(EdgeType{src_cls, tgt->classId()}) +
                        rule.minStale;
}

void
Tracer::scanObject(Object *obj, const TracePolicy &policy, TraceStats &stats)
{
    const ClassInfo &cls = registry_.info(obj->classId());
    obj->forEachRefSlot(cls, [&](ref_t *slot) {
        const ref_t r = *slot;
        if (refIsNull(r))
            return;
        if (refIsPoisoned(r)) {
            // Pruned (or offloaded) in an earlier GC: never traced.
            if (policy.recordStubs)
                stubs_.push_back(r);
            return;
        }
        Object *tgt = refTarget(r);
        EdgeAction action = EdgeAction::Trace;
        if (policy.rule && ruleMatches(policy, cls.id, tgt)) {
            matches_.push_back(EdgeMatch{slot, cls.id, tgt});
            action = policy.rule->onMatch;
        }
        switch (action) {
          case EdgeAction::Trace:
            // Avoid the store when the tag survived from an earlier
            // collection (the barrier only clears it on use).
            if (policy.tagReferences && !refHasStaleCheck(r))
                *slot = refWithStaleCheck(r);
            shade(tgt);
            break;
          case EdgeAction::Defer:
            // The match is the plugin's candidate; the stale closure
            // deals with it after the in-use closure.
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
Tracer::drain(const TracePolicy &policy, TraceStats &stats)
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
        onMarked(obj, policy, stats);
        scanObject(obj, policy, stats);
    }
    if (gray_.capacity() > kRetainedGrayCapacity) {
        std::vector<Object *>().swap(gray_);
        gray_.reserve(kRetainedGrayCapacity);
    }
}

TraceStats
Tracer::traceFromRoots(RootProvider &roots, const TracePolicy &policy)
{
    LP_ASSERT(gray_.empty(), "gray stack not drained by the last closure");
    clearTrimmed(matches_);
    clearTrimmed(stubs_);
    max_stale_marked_ = 0;
    beginClosure(policy);
    // Seed the gray stack from the root set (stacks/registers +
    // statics).
    roots.forEachRoot([&](ref_t *slot) {
        const ref_t r = *slot;
        if (!refIsNull(r) && !refIsPoisoned(r))
            shade(refTarget(r));
    });
    TraceStats stats;
    drain(policy, stats);
    return stats;
}

std::uint64_t
Tracer::traceSubgraph(Object *start, const TracePolicy &policy,
                      TraceStats &stats)
{
    // A rule would append to matches_ while the caller iterates it.
    LP_ASSERT(!policy.rule, "a subgraph closure traces every edge");
    beginClosure(policy);
    // A start object already live via another path (or an earlier
    // candidate) is not claimed again, so the call returns 0.
    const std::uint64_t before = stats.bytesMarked;
    shade(start);
    drain(policy, stats);
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

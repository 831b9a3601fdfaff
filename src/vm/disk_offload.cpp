#include "vm/disk_offload.h"

#include <unordered_set>
#include <vector>

#include "gc/tracer.h"
#include "object/object.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"
#include "vm/runtime.h"

namespace lp {

DiskOffload::DiskOffload(Runtime &rt, DiskOffloadConfig config)
    : rt_(rt), config_(config)
{}

DiskOffload::~DiskOffload() = default;

TracePolicy
DiskOffload::beginCollection(std::uint64_t epoch)
{
    (void)epoch;
    offloaded_this_gc_ = 0;
    offload_map_.clear();
    gc_start_id_ = next_stub_id_;
    // Offload during this collection if the heap was nearly full at
    // the end of the previous one.
    offloading_this_gc_ = offload_pending_;

    // Offload mispredictions are recoverable (the object faults back
    // in from disk), so the clock may age recently-reset objects
    // through OOM retry collections: required for progress when the
    // program re-reads the whole heap (resetting every counter) just
    // before exhaustion.
    TracePolicy policy;
    policy.ageThroughRetries = true;
    if (!observing_)
        return policy;
    policy.observe = true;
    policy.recordStubs = true; // the disk GC's liveness scan
    // Staleness-only rule (the paper's "Most stale" family): any
    // sufficiently stale, unpinned target is a move candidate. Unlike
    // pruning, mispredictions are recoverable, so no maxStaleUse floor
    // is needed — which is exactly why this predictor is too imprecise
    // for pruning (Section 6.1).
    if (offloading_this_gc_ && !stats_.diskExhausted)
        policy.rule = EdgeRule{EdgeAction::Defer, config_.staleThreshold};
    return policy;
}

template <typename Fn>
void
DiskOffload::forEachRecordStub(const StubRecord &record, Fn &&fn) const
{
    const std::size_t ref_base = record.kind == ObjectKind::Scalar ? 0 : 1;
    std::size_t ref_count = 0;
    switch (record.kind) {
      case ObjectKind::Scalar:
        ref_count = rt_.classes().info(record.cls).numRefSlots;
        break;
      case ObjectKind::RefArray:
        ref_count = record.arrayLength;
        break;
      case ObjectKind::ByteArray:
        break;
    }
    for (std::size_t i = 0; i < ref_count; ++i) {
        const ref_t r = record.payload[ref_base + i];
        if (!refIsNull(r) && refIsPoisoned(r))
            fn(stubId(r));
    }
}

std::uint64_t
DiskOffload::offloadSubgraph(Object *root)
{
    // Runs inside the collection pause; the "write" goes on the GC
    // track (args: cohort objects, bytes serialized).
    TelemetrySpan span(rt_.telemetry(), TracePhase::OffloadWrite,
                      /*gc_track=*/true);
    std::uint64_t span_bytes = 0;

    // Two passes over the unmarked subgraph: assign stub ids, then
    // serialize with internal references rewritten to stub words and
    // external (live) references kept as raw words + keep-alive roots.
    std::vector<Object *> cohort;
    {
        std::vector<Object *> work{root};
        offload_map_.emplace(root, next_stub_id_++);
        cohort.push_back(root);
        while (!work.empty()) {
            Object *obj = work.back();
            work.pop_back();
            const ClassInfo &cls = rt_.classes().info(obj->classId());
            obj->forEachRefSlot(cls, [&](ref_t *slot) {
                const ref_t r = *slot;
                if (refIsNull(r) || refIsPoisoned(r))
                    return;
                Object *tgt = refTarget(r);
                if (rt_.heap().isMarked(tgt) || offload_map_.count(tgt))
                    return; // live, or already in some cohort
                offload_map_.emplace(tgt, next_stub_id_++);
                cohort.push_back(tgt);
                work.push_back(tgt);
            });
        }
    }

    std::lock_guard<std::mutex> lock(disk_mutex_);
    for (Object *obj : cohort) {
        const ClassInfo &cls = rt_.classes().info(obj->classId());
        const std::uint64_t id = offload_map_[obj];
        StubRecord record;
        record.cls = obj->classId();
        record.kind = cls.kind;
        if (cls.kind != ObjectKind::Scalar)
            record.arrayLength = obj->arrayLength();
        record.chargedBytes = obj->sizeBytes();
        const std::size_t payload_words =
            (obj->sizeBytes() - Object::kHeaderBytes) / kWordBytes;
        record.payload.assign(obj->payload(), obj->payload() + payload_words);

        // Rewrite reference slots within the serialized payload.
        const std::size_t ref_base = cls.kind == ObjectKind::Scalar ? 0 : 1;
        const std::size_t ref_count = obj->refSlotCount(cls);
        for (std::size_t i = 0; i < ref_count; ++i) {
            const ref_t r = record.payload[ref_base + i];
            if (refIsNull(r))
                continue;
            if (refIsPoisoned(r))
                continue; // already a stub word (re-offloaded object)
            Object *tgt = refTarget(r);
            auto it = offload_map_.find(tgt);
            if (it != offload_map_.end()) {
                record.payload[ref_base + i] = stubRef(it->second);
            } else {
                // External live target: root it so it outlives the
                // disk record that points at it.
                record.payload[ref_base + i] = refClean(r);
                record_roots_[id].push_back(
                    std::make_unique<GlobalRoot>(rt_.roots(), tgt));
            }
        }

        stats_.diskLiveBytes += record.chargedBytes;
        ++stats_.objectsOffloaded;
        stats_.bytesOffloaded += record.chargedBytes;
        span_bytes += record.chargedBytes;
        disk_.emplace(id, std::move(record));
    }
    span.setArgs(static_cast<std::uint32_t>(cohort.size()), span_bytes);
    return offload_map_[root];
}

void
DiskOffload::afterInUseClosure(Tracer &tracer)
{
    if (offloading_this_gc_) {
        ++stats_.offloadCollections;
        // A deferred target the full disk cannot take is rescued:
        // marked with its subgraph so the epoch flip keeps it, as if
        // its edge had been traced, but without tags or clock ticks.
        // Stub words inside it still count as live references for the
        // disk GC, and its objects count in the collection's totals.
        TracePolicy rescue;
        rescue.recordStubs = true;
        for (const EdgeMatch &m : tracer.matches()) {
            if (rt_.heap().isMarked(m.target))
                continue; // reached via a live path after all
            if (stats_.diskLiveBytes >= config_.diskBudgetBytes)
                stats_.diskExhausted = true; // how disk-based systems die
            if (stats_.diskExhausted) {
                tracer.traceSubgraph(m.target, rescue);
                continue;
            }
            auto it = offload_map_.find(m.target);
            const std::uint64_t id = it != offload_map_.end()
                                         ? it->second
                                         : offloadSubgraph(m.target);
            *m.slot = stubRef(id);
            ++offloaded_this_gc_;
        }
    }
    if (observing_)
        collectDisk(tracer.stubs());
}

void
DiskOffload::collectDisk(const std::vector<ref_t> &stubs)
{
    std::lock_guard<std::mutex> disk_lock(disk_mutex_);

    // Live ids: seen in heap slots this trace, plus everything minted
    // during this collection (their root slots were written after the
    // trace), transitively closed over record-internal references.
    std::unordered_set<std::uint64_t> live;
    std::vector<std::uint64_t> work;
    for (ref_t r : stubs) {
        if (live.insert(stubId(r)).second)
            work.push_back(stubId(r));
    }
    for (std::uint64_t id = gc_start_id_; id < next_stub_id_; ++id) {
        if (live.insert(id).second)
            work.push_back(id);
    }
    while (!work.empty()) {
        const std::uint64_t id = work.back();
        work.pop_back();
        auto it = disk_.find(id);
        if (it == disk_.end())
            continue;
        forEachRecordStub(it->second, [&](std::uint64_t child) {
            if (live.insert(child).second)
                work.push_back(child);
        });
    }

    // Free dead records (and their keep-alive roots).
    for (auto it = disk_.begin(); it != disk_.end();) {
        if (live.count(it->first)) {
            ++it;
            continue;
        }
        stats_.diskLiveBytes -= it->second.chargedBytes;
        ++stats_.recordsCollected;
        record_roots_.erase(it->first);
        it = disk_.erase(it);
    }
    // Drop spent forwarding entries: once no stub names the id, the
    // re-materialized object lives or dies by ordinary reachability.
    for (auto it = retrieved_.begin(); it != retrieved_.end();) {
        if (live.count(it->first)) {
            ++it;
            continue;
        }
        retrieved_roots_.erase(it->first);
        it = retrieved_.erase(it);
    }
}

void
DiskOffload::endCollection(const CollectionOutcome &outcome)
{
    const double fullness = outcome.fullness();
    if (!observing_ && fullness > config_.observeThreshold)
        observing_ = true; // sticky, like the paper's OBSERVE
    if (stats_.diskLiveBytes < config_.diskBudgetBytes)
        stats_.diskExhausted = false; // disk GC may have made room
    offload_pending_ = observing_ && fullness >= config_.offloadThreshold &&
                       !stats_.diskExhausted;
}

bool
DiskOffload::memoryExhausted(std::size_t requested_bytes, std::uint64_t epoch,
                             unsigned rounds_so_far)
{
    // Nothing to record: the offloader defers no error.
    (void)requested_bytes;
    (void)epoch;
    if (rounds_so_far < 3)
        return true; // let the observe/offload pipeline fill
    if (stats_.diskExhausted)
        return false;
    return offload_pending_ || offloaded_this_gc_ > 0;
}

Object *
DiskOffload::faultIn(Object *holder, ref_t *slot, ref_t observed)
{
    // Mutator-track span: the paper's baseline pays for mispredictions
    // with faults like this one, and traces make that cost visible.
    TelemetrySpan span(rt_.telemetry(), TracePhase::OffloadFault);
    const std::uint64_t id = stubId(observed);
    StubRecord record;
    {
        std::lock_guard<std::mutex> lock(disk_mutex_);
        // The same stub id can live in several slots (shared subgraph
        // members): once retrieved, later faults resolve through the
        // forwarding map, Melt style.
        auto done = retrieved_.find(id);
        if (done != retrieved_.end()) {
            ref_t expected = observed;
            std::atomic_ref<ref_t>(*slot).compare_exchange_strong(
                expected, makeRef(done->second), std::memory_order_acq_rel);
            return done->second;
        }
        auto it = disk_.find(id);
        LP_ASSERT(it != disk_.end(), "stub handle without disk record");
        record = it->second; // copy: the record stays until we commit
    }

    // Allocation may collect; the stub word stays in the slot and the
    // collector skips it, so the world is consistent throughout. The
    // lock is not held across allocation (GC-time offloading also
    // takes it). The holder is rooted across it by a handle: that
    // collection could otherwise find the caller's path to the holder
    // stale and offload it, and the slot repaired below would be freed
    // memory. Rooted, it is marked from the roots, and its scan keeps
    // this stub's record live through the disk GC.
    HandleScope scope(rt_.roots());
    scope.handle(holder);
    Object *obj = nullptr;
    switch (record.kind) {
      case ObjectKind::Scalar:
        obj = rt_.allocate(record.cls);
        break;
      case ObjectKind::RefArray:
        obj = rt_.allocateRefArray(record.cls, record.arrayLength);
        break;
      case ObjectKind::ByteArray:
        obj = rt_.allocateByteArray(record.cls, record.arrayLength);
        break;
    }
    std::copy(record.payload.begin(), record.payload.end(), obj->payload());

    {
        std::lock_guard<std::mutex> lock(disk_mutex_);
        auto done = retrieved_.find(id);
        if (done != retrieved_.end()) {
            // A racing fault committed first; our copy becomes garbage.
            obj = done->second;
        } else {
            retrieved_.emplace(id, obj);
            retrieved_roots_.emplace(
                id, std::make_unique<GlobalRoot>(rt_.roots(), obj));
            // The record's external keep-alive roots transfer their
            // job to the heap copy (which now holds the raw refs).
            record_roots_.erase(id);
            disk_.erase(id);
            stats_.diskLiveBytes -= record.chargedBytes;
            ++stats_.objectsRetrieved;
        }
    }
    ref_t expected = observed;
    std::atomic_ref<ref_t>(*slot).compare_exchange_strong(
        expected, makeRef(obj), std::memory_order_acq_rel);
    return obj;
}

} // namespace lp

#include "vm/runtime.h"

#include <algorithm>
#include <fstream>

#include "util/logging.h"

namespace lp {

namespace {

/**
 * RAII allocation lock that is safepoint friendly: while waiting for
 * the lock the thread counts as blocked, so a collecting thread (which
 * holds this lock for the whole collection) is never stalled by
 * threads queueing behind it.
 */
class AllocLock
{
  public:
    AllocLock(std::mutex &m, ThreadRegistry &threads)
        : lock_(m, std::defer_lock)
    {
        BlockedScope blocked(threads);
        lock_.lock();
        // BlockedScope's destructor re-parks if a pause is pending;
        // since we now hold the allocation lock, no new pause can
        // start until we release it.
    }

  private:
    std::unique_lock<std::mutex> lock_;
};

} // namespace

Runtime::Runtime(const RuntimeConfig &config)
    : config_(config), heap_(config.heapBytes),
      barriers_enabled_(config.barrierMode == BarrierMode::AllTheTime)
{
    if (config_.gcThreads != 1)
        fatal("the collector is serial: RuntimeConfig::gcThreads must be 1, "
              "not ", config_.gcThreads);
    if (config_.gcTriggerFraction > 0) {
        gc_budget_bytes_ = static_cast<std::size_t>(
            config_.gcTriggerFraction * static_cast<double>(heap_.capacity()));
        gc_budget_bytes_ = std::max<std::size_t>(gc_budget_bytes_, 64 * 1024);
    }
    const ToleranceMode mode =
        config_.enableLeakPruning ? config_.tolerance : ToleranceMode::None;
    if (mode != ToleranceMode::None && !barriers_enabled_)
        fatal("leak tolerance requires read barriers (BarrierMode::AllTheTime)");
    if (mode == ToleranceMode::LeakPruning) {
        pruning_ = std::make_unique<LeakPruning>(registry_, config_.pruning,
                                                 telemetry_);
        tolerance_plugin_ = pruning_.get();
    } else if (mode == ToleranceMode::DiskOffload) {
        offload_ = std::make_unique<DiskOffload>(*this, config_.offload);
        tolerance_plugin_ = offload_.get();
    }
    collector_ = std::make_unique<Collector>(heap_, registry_, roots_, threads_,
                                             telemetry_);
    collector_->setPlugin(tolerance_plugin_);
    heap_.setTelemetry(&telemetry_);

    VerifierContext vctx;
    vctx.heap = &heap_;
    vctx.registry = &registry_;
    vctx.roots = &roots_;
    vctx.pruning = pruning_.get();
    vctx.gcStats = &collector_->stats();
    vctx.audit = &telemetry_.audit();
    vctx.offloadActive = offload_ != nullptr;
    verifier_ = std::make_unique<HeapVerifier>(vctx, config_.verifier);
    collector_->setPostCollectionHook([this](const CollectionOutcome &outcome) {
        if (verifier_->due(outcome.epoch))
            verifier_->verify(outcome.epoch);
    });

    threads_.registerMutator(); // the constructing thread is a mutator
}

Runtime::~Runtime()
{
    threads_.unregisterMutator();
}

CollectionOutcome
Runtime::collectNow()
{
    AllocLock lock(alloc_mutex_, threads_);
    bytes_since_gc_ = 0;
    const CollectionOutcome outcome =
        collector_->collect(/*due=*/true, /*retry=*/false);
    bytes_since_clock_tick_ += outcome.drainedBytes;
    return outcome;
}

VerifierReport
Runtime::verifyHeap()
{
    // The allocation lock keeps any concurrent collection (which also
    // stops the world) from interleaving with the verification pause.
    AllocLock lock(alloc_mutex_, threads_);
    threads_.stopTheWorld();
    // Same flush the collector does: the charge-sum invariant is only
    // exact with every thread's chunk leases retired. The drained bytes
    // still age the staleness clock.
    bytes_since_clock_tick_ += collector_->retireCaches();
    VerifierReport report = verifier_->verify(collector_->epoch());
    threads_.resumeTheWorld();
    return report;
}

void
Runtime::collectLocked(bool retry)
{
    // The staleness clock approximates *program* time between uses of
    // an object, measured in full-heap collections. In the paper's
    // generational collector those are roughly one-per-heap-fill
    // events; here every collection is full-heap and several can land
    // within one allocation call (budget trigger plus out-of-memory
    // retries), which would age every briefly-idle live structure
    // straight past the candidate threshold. So a tick is due only
    // when the program has allocated a quantum since the last tick.
    // The collector ticks when one is due, and also on an
    // out-of-memory retry of a scheme whose policy ages through
    // retries (TracePolicy::ageThroughRetries): such a collection can
    // only make progress if idle objects keep aging toward the
    // scheme's threshold, and gating its ticks on allocation progress
    // deadlocks (no allocation succeeds until something is reclaimed,
    // nothing is reclaimed until the clock advances).
    const std::size_t pre_pause_clock_bytes = bytes_since_clock_tick_;
    const CollectionOutcome outcome = collector_->collect(
        /*due=*/pre_pause_clock_bytes >= kClockQuantumBytes, retry);
    // The pause drained other threads' cache-local allocation bytes.
    // A tick consumes only what was on the clock before the pause:
    // consuming those too would silently slow the clock (objects would
    // stop aging and the tolerance schemes would stall before memory
    // runs out).
    bytes_since_clock_tick_ += outcome.drainedBytes;
    if (outcome.ticked)
        bytes_since_clock_tick_ -= pre_pause_clock_bytes;
    bytes_since_gc_ = 0;

    // Schedule the next collection at half the remaining headroom:
    // "allocations trigger more and more collections as memory fills
    // the heap" (paper Section 3.1). Collecting before hard exhaustion
    // is what gives the observation machinery time to see stale-then-
    // used references and protect them via maxStaleUse.
    if (config_.gcTriggerFraction > 0) {
        const std::size_t live = collector_->stats().lastLiveBytes;
        const std::size_t headroom =
            heap_.capacity() > live ? heap_.capacity() - live : 0;
        gc_budget_bytes_ = std::clamp<std::size_t>(
            headroom / 2, 64 * 1024,
            static_cast<std::size_t>(config_.gcTriggerFraction *
                                     static_cast<double>(heap_.capacity())));
    }
}

void
Runtime::noteAllocated(std::size_t bytes, ThreadAllocCache *cache)
{
    // Caller holds the allocation lock. Cache allocations accumulate
    // trigger bytes locally (including the carve that just succeeded);
    // draining here folds them into the budget and staleness clock.
    // Large allocations account their request directly.
    const std::uint64_t d = cache ? cache->takeTriggerBytes() : bytes;
    bytes_since_gc_ += d;
    bytes_since_clock_tick_ += d;
}

void *
Runtime::allocateSlow(std::size_t bytes, ThreadAllocCache *cache)
{
    AllocLock lock(alloc_mutex_, threads_);

    // Fold the fast-path bytes allocated since this thread last came
    // through here, then apply the periodic trigger: collect once the
    // allocation budget since the last collection is spent, the way a
    // VM collects "each time the program fills the heap" rather than
    // only at hard exhaustion. With thread-local caches the trigger is
    // tested at refill granularity (at most one chunk per size class
    // between tests), which keeps it well under the >= 64KB budget.
    if (cache) {
        const std::uint64_t drained = cache->takeTriggerBytes();
        bytes_since_gc_ += drained;
        bytes_since_clock_tick_ += drained;
    }
    if (gc_budget_bytes_ && bytes_since_gc_ >= gc_budget_bytes_)
        collectLocked();

    const auto try_alloc = [&]() -> void * {
        return cache ? cache->allocateRefill(bytes)
                     : heap_.allocateLarge(bytes);
    };

    void *mem = try_alloc();
    if (mem) [[likely]] {
        noteAllocated(bytes, cache);
        return mem;
    }

    // Collect until the request fits. The pruning engine reports
    // whether another collection can still help (a selection pending,
    // a prune that just made progress); without pruning a single
    // collection is all the help there is.
    for (unsigned round = 0; round < kMaxGcRoundsPerAllocation; ++round) {
        collectLocked(/*retry=*/true);
        mem = try_alloc();
        if (mem) {
            noteAllocated(bytes, cache);
            return mem;
        }
        if (!tolerance_plugin_)
            break;
        // The VM is at the point where it would throw an out-of-memory
        // error; the scheme records it (for pruning, the deferred error
        // becomes the cause of any later poisoned-access InternalError)
        // and decides whether another collection can help.
        if (!tolerance_plugin_->memoryExhausted(bytes, collector_->epoch(),
                                                round + 1))
            break;
    }
    throw OutOfMemoryError(bytes, collector_->epoch());
}

Object *
Runtime::allocateRaw(class_id_t cls, std::size_t bytes)
{
    threads_.pollSafepoint();
    // One lookup serves the whole allocation: the thread's registry
    // entry holds its chunk leases and its last-allocation root. The
    // fast path takes no lock, so an unregistered thread would not be
    // halted by stop-the-world and could carve blocks under a running
    // collection.
    ThreadRegistry::ThreadState *self = threads_.current();
    LP_ASSERT(self, "allocation from a thread not registered as a mutator");

    // Fast path: carve from this thread's chunk lease — no lock, no
    // atomics. Falls through on a missing/exhausted lease or a large
    // request (the LOS takes the locked slow path).
    ThreadAllocCache *cache = nullptr;
    void *mem = nullptr;
    if (bytes <= Heap::kLargeThreshold) {
        cache = &self->cache;
        mem = cache->allocateFast(bytes);
    }
    if (!mem) [[unlikely]]
        mem = allocateSlow(bytes, cache);

    Object *obj = Object::format(mem, cls, bytes);
    // Root the fresh object until the caller publishes it: another
    // thread may trigger a collection before that happens, and an
    // unrooted new object would be swept (a real VM's stack scan
    // covers this window; a library runtime must do it explicitly).
    self->lastAllocation = makeRef(obj);
    return obj;
}

Object *
Runtime::allocate(class_id_t cls)
{
    const ClassInfo &info = registry_.info(cls);
    LP_ASSERT(info.kind == ObjectKind::Scalar, "allocate() needs a scalar class");
    return allocateRaw(cls, Object::scalarSize(info));
}

Object *
Runtime::allocateRefArray(class_id_t cls, std::size_t length)
{
    const ClassInfo &info = registry_.info(cls);
    LP_ASSERT(info.kind == ObjectKind::RefArray, "not a ref-array class");
    Object *obj = allocateRaw(cls, Object::refArraySize(length));
    obj->setArrayLength(length);
    return obj;
}

Object *
Runtime::allocateByteArray(class_id_t cls, std::size_t length)
{
    const ClassInfo &info = registry_.info(cls);
    LP_ASSERT(info.kind == ObjectKind::ByteArray, "not a byte-array class");
    Object *obj = allocateRaw(cls, Object::byteArraySize(length));
    obj->setArrayLength(length);
    return obj;
}

Object *
Runtime::readBarrierColdPath(Object *src, const ClassInfo &src_cls,
                             ref_t *addr, ref_t observed,
                             BarrierStats &counts)
{
    countOwned(counts.coldPathHits);

    // Check for an invalidated reference first. Under leak pruning the
    // target is gone and the access throws (paper Section 4.4); under
    // the disk-offload baseline the tag is a stub handle and the
    // object is faulted back in from disk.
    if (refIsPoisoned(observed)) {
        if (offload_)
            return offload_->faultIn(src, addr, observed);
        countOwned(counts.poisonThrows);
        // Grade the prediction: this pruned reference turned out to be
        // live. Only the source end still exists to name.
        telemetry_.audit().recordPoisonAccess(src_cls.id);
        telemetry_.emitInstant(TracePhase::PoisonAccess, src_cls.id);
        std::shared_ptr<const OutOfMemoryError> cause =
            pruning_ ? pruning_->avertedOutOfMemory() : nullptr;
        // Do NOT touch the target: its memory was reclaimed and may
        // have been recycled. Name the edge by its source class only.
        throw InternalError(
            "InternalError: access to pruned reference out of " +
                src_cls.name,
            std::move(cause));
    }

    // Stale-check bit set: first use of this reference since the last
    // collection. Record how stale the target had become, clear the
    // bit, and zero the target's stale counter. The slot CAS, the one
    // locked instruction here, publishes the cleaned reference only if
    // the slot is unchanged (the paper's "[iff a.f == t]"), so a racing
    // writer's store is never clobbered. The counter reset is a plain
    // byte store: zero is the only value a mutator writes there
    // (Object's file comment), and a zero counter needs none.
    Object *tgt = refTarget(observed);
    const unsigned stale = tgt->staleCounter();
    if (pruning_ && stale >= 2)
        pruning_->onReferenceUsed(src_cls.id, tgt->classId(), stale);

    ref_t expected = observed;
    std::atomic_ref<ref_t>(*addr).compare_exchange_strong(
        expected, refClean(observed), std::memory_order_relaxed);
    // If the CAS failed another thread wrote a valid reference; using
    // our already-loaded value remains a correct serialization.

    if (stale != 0)
        tgt->clearStaleCounter();
    return tgt;
}

namespace {

/** Open @p path for writing and pass the stream to @p writer. */
template <typename Writer>
bool
writeFile(const std::string &path, Writer &&writer)
{
    std::ofstream os(path);
    if (!os)
        return false;
    writer(os);
    return os.good();
}

/** One histogram of the metrics snapshot; empty buckets are omitted. */
void
writeHistogram(std::ostream &os, const char *name, const LogHistogram &h)
{
    os << "\n    \"" << name << "\": {\"count\": " << h.count()
       << ", \"p50\": " << h.percentileBound(0.50)
       << ", \"p95\": " << h.percentileBound(0.95) << ", \"buckets\": [";
    const char *sep = "";
    for (unsigned i = 0; i < LogHistogram::kBuckets; ++i) {
        if (h.bucket(i) == 0)
            continue;
        os << sep << "{\"le\": " << LogHistogram::bucketBound(i)
           << ", \"count\": " << h.bucket(i) << "}";
        sep = ", ";
    }
    os << "]}";
}

} // namespace

bool
Runtime::writeTrace(const std::string &path)
{
    return writeFile(path,
                     [&](std::ostream &os) { telemetry_.writeChromeTrace(os); });
}

bool
Runtime::writeMetricsJson(const std::string &path)
{
    // Collections run under the allocation lock, so holding it makes
    // the GcStats read one consistent snapshot.
    AllocLock lock(alloc_mutex_, threads_);
    const GcStats &gc = collector_->stats();
    return writeFile(path, [&](std::ostream &os) {
        os << "{\n  \"counters\": {"
           << "\n    \"gc.collections\": " << gc.collections << ","
           << "\n    \"gc.objects_finalized\": " << gc.objectsFinalized
           << "\n  },\n  \"gauges\": {"
           << "\n    \"gc.live_bytes\": " << gc.lastLiveBytes << ","
           << "\n    \"gc.mark_plain_ns_per_object\": "
           << gc.plainMark.nsPerObject() << ","
           << "\n    \"gc.mark_classifying_ns_per_object\": "
           << gc.classifyingMark.nsPerObject() << ","
           << "\n    \"telemetry.dropped_events\": "
           << telemetry_.droppedEvents() << ","
           << "\n    \"telemetry.threads\": " << telemetry_.threadCount();
        os << "\n  },\n  \"histograms\": {";
        writeHistogram(os, "gc.pause_nanos", gc.pauseHistogram);
        os << ",";
        writeHistogram(os, "gc.safepoint_wait_nanos", gc.safepointWaitHistogram);
        os << "\n  }\n}\n";
    });
}

} // namespace lp

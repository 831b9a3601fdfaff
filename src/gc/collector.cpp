#include "gc/collector.h"

#include <algorithm>

#include "heap/heap.h"
#include "object/object.h"
#include "telemetry/telemetry.h"
#include "threads/safepoint.h"
#include "util/logging.h"
#include "util/timer.h"

namespace lp {

const char *
pauseStageName(PauseStage stage)
{
    switch (stage) {
      case PauseStage::RetireCaches:   return "retire-caches";
      case PauseStage::Mark:           return "mark";
      case PauseStage::Plugin:         return "plugin";
      case PauseStage::FinalizerScan:  return "finalizer-scan";
      case PauseStage::EpochFlip:      return "epoch-flip";
      case PauseStage::Verify:         return "verify";
      case PauseStage::kCount:         break;
    }
    return "?";
}

namespace {

/** Wall-clock bounds of one executed pause stage. */
struct StageTiming {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint64_t nanos() const { return end - start; }
};

} // namespace

Collector::Collector(Heap &heap, const ClassRegistry &registry,
                     RootProvider &roots, ThreadRegistry &threads,
                     Telemetry &telemetry)
    : heap_(heap), registry_(registry), roots_(roots), threads_(threads),
      tracer_(heap, registry), telemetry_(telemetry)
{}

Collector::~Collector() = default;

CollectionOutcome
Collector::collect(bool tick)
{
    const std::uint64_t req_start = nowNanos();
    threads_.stopTheWorld();
    const std::uint64_t pause_start = nowNanos();

    StageTiming timings[static_cast<std::size_t>(PauseStage::kCount)];
    const auto stage = [&](PauseStage which, auto &&body) {
        StageTiming &t = timings[static_cast<std::size_t>(which)];
        t.start = nowNanos();
        body();
        t.end = nowNanos();
    };
    const auto timing = [&](PauseStage which) -> const StageTiming & {
        return timings[static_cast<std::size_t>(which)];
    };

    // Fold thread-local allocation caches back into the heap before
    // touching it: the flip requires every chunk lease retired, and
    // the verifier's charge-sum invariant needs exact byte accounting.
    stage(PauseStage::RetireCaches, [&] {
        if (world_stopped_hook_)
            world_stopped_hook_();
    });

    // The collection's number, its clock decision and its totals are
    // the tracer's from here on; the plugin learns the number and
    // answers with the policy its closures run under.
    ++epoch_;
    tracer_.beginCollection(epoch_, tick);
    const TracePolicy policy =
        plugin_ ? plugin_->beginCollection(epoch_) : TracePolicy{};

    // The in-use transitive closure from the roots, claiming in the
    // heap's side mark bitmaps (all clear between collections).
    stage(PauseStage::Mark, [&] { tracer_.traceFromRoots(roots_, policy); });
    GcStats::MarkCost &mark =
        policy.rule ? stats_.classifyingMark : stats_.plainMark;
    mark.nanos += timing(PauseStage::Mark).nanos();
    mark.objects += tracer_.stats().objectsMarked;

    // Plugin phase — in SELECT this is the stale closure and edge-type
    // selection; in other states it is a no-op. Every closure the
    // plugin runs through the tracer adds to the collection's totals.
    stage(PauseStage::Plugin, [&] {
        if (plugin_)
            plugin_->afterInUseClosure(tracer_);
    });
    const TraceStats trace = tracer_.stats();

    // Finalizers run before the flip reclaims dead blocks, while the
    // marks still tell live from dead. By default the paper (and we)
    // keep calling finalizers after pruning starts (Section 2).
    std::uint64_t finalized = 0;
    const bool finalizers_on = !plugin_ || plugin_->finalizersEnabled();
    stage(PauseStage::FinalizerScan, [&] {
        if (!finalizers_on || !registry_.anyFinalizers())
            return;
        heap_.forEachObject([&](Object *obj) {
            if (heap_.isMarked(obj))
                return;
            const ClassInfo &cls = registry_.info(obj->classId());
            if (!cls.hasFinalizer())
                return;
            if (obj->tryEnqueueFinalizer()) {
                ++finalized;
                cls.finalizer(obj);
            }
        });
    });

    // The epoch flip is the end of the collection and the whole sweep:
    // unmarked blocks and large objects are reclaimed from the side
    // bitmaps, and the marks are cleared for the next collection.
    Heap::FlipResult flip;
    stage(PauseStage::EpochFlip, [&] { flip = heap_.flipMarkEpoch(); });

    CollectionOutcome outcome;
    outcome.epoch = epoch_;
    outcome.liveBytes = flip.liveBytes;
    outcome.committedBytes = flip.committedBytes;
    outcome.capacityBytes = heap_.capacity();
    outcome.objectsMarked = trace.objectsMarked;
    outcome.refsPoisoned = trace.refsPoisoned;

    if (plugin_)
        plugin_->endCollection(outcome);

    stats_.collections += 1;
    stats_.totalMarkNanos += timing(PauseStage::Mark).nanos();
    stats_.totalSweepNanos += timing(PauseStage::EpochFlip).nanos();
    stats_.objectsMarkedTotal += trace.objectsMarked;
    stats_.objectsFinalized += finalized;
    stats_.refsPoisonedTotal += trace.refsPoisoned;
    stats_.lastLiveBytes = flip.liveBytes;
    const std::uint64_t safepoint_wait = pause_start - req_start;
    stats_.totalSafepointWaitNanos += safepoint_wait;
    stats_.maxSafepointWaitNanos =
        std::max(stats_.maxSafepointWaitNanos, safepoint_wait);
    stats_.safepointWaitHistogram.add(safepoint_wait);

    // Post-collection analysis (heap verification) runs inside the
    // existing pause: no mutator can race the walk.
    stage(PauseStage::Verify, [&] {
        if (post_collection_hook_)
            post_collection_hook_(outcome);
    });
    stats_.totalVerifyNanos += timing(PauseStage::Verify).nanos();

    // All GC phases go on the synthetic GC track.
    telemetry_.emitSpan(TracePhase::SafepointWait, req_start, pause_start,
                        static_cast<std::uint32_t>(threads_.mutatorCount()),
                        0, /*gc_track=*/true);
    telemetry_.emitSpan(TracePhase::GcMark, timing(PauseStage::Mark).start,
                        timing(PauseStage::Mark).end,
                        static_cast<std::uint32_t>(trace.objectsMarked), 0,
                        true);
    telemetry_.emitSpan(TracePhase::GcPlugin, timing(PauseStage::Plugin).start,
                        timing(PauseStage::Plugin).end,
                        static_cast<std::uint32_t>(trace.refsPoisoned), 0,
                        true);
    if (finalizers_on && registry_.anyFinalizers())
        telemetry_.emitSpan(TracePhase::GcFinalizerScan,
                            timing(PauseStage::FinalizerScan).start,
                            timing(PauseStage::FinalizerScan).end,
                            static_cast<std::uint32_t>(finalized), 0, true);
    // The flip is the whole sweep.
    telemetry_.emitSpan(TracePhase::GcSweep, timing(PauseStage::EpochFlip).start,
                        timing(PauseStage::EpochFlip).end,
                        static_cast<std::uint32_t>(flip.freedChunks),
                        flip.liveBytes, true);
    if (post_collection_hook_)
        telemetry_.emitSpan(TracePhase::GcVerify,
                            timing(PauseStage::Verify).start,
                            timing(PauseStage::Verify).end, 0, 0, true);

    // The pause ends at world-resume, so lastPauseNanos covers
    // everything mutators actually waited for — including the verifier
    // and the telemetry spans above.
    const std::uint64_t pause_end = nowNanos();
    stats_.lastPauseNanos = pause_end - pause_start;
    stats_.totalPauseNanos += stats_.lastPauseNanos;
    stats_.maxPauseNanos = std::max(stats_.maxPauseNanos, stats_.lastPauseNanos);
    stats_.pauseHistogram.add(stats_.lastPauseNanos);
    if (stats_.pauseSamplesNanos.size() < GcStats::kMaxPauseSamples)
        stats_.pauseSamplesNanos.push_back(stats_.lastPauseNanos);

    telemetry_.emitSpan(TracePhase::GcPause, pause_start, pause_end,
                        static_cast<std::uint32_t>(epoch_), flip.liveBytes,
                        true);

    threads_.resumeTheWorld();
    return outcome;
}

} // namespace lp

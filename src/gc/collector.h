/**
 * @file
 * The stop-the-world mark collector: an explicit staged pipeline.
 *
 * One collection runs the fixed PauseStage sequence inside the pause:
 * retire thread caches (the drained bytes go back to the runtime's
 * allocation clock), run the in-use closure (under the edge rule the
 * plugin publishes), let the plugin run its stale closure and
 * selection, scan for and run finalizers on dead objects, flip the
 * heap's mark epoch (which reclaims every unmarked block from the side
 * bitmaps and clears the marks), and verify. Nothing is left to sweep
 * after the pause. See DESIGN.md "GC pipeline".
 */

#ifndef LP_GC_COLLECTOR_H
#define LP_GC_COLLECTOR_H

#include <cstdint>
#include <functional>
#include <vector>

#include "gc/plugin.h"
#include "gc/tracer.h"
#include "util/stats.h"

namespace lp {

class Heap;
class Telemetry;
class ThreadRegistry;

/**
 * The fixed stage sequence of one stop-the-world pause, in execution
 * order. Stage timings are recorded individually; telemetry exports
 * one span per substantive stage.
 */
enum class PauseStage : std::uint8_t {
    RetireCaches,  //!< fold thread-local allocation caches back
    Mark,          //!< the in-use transitive closure
    Plugin,        //!< stale closure + edge selection (leak pruning)
    FinalizerScan, //!< run finalizers on dead objects, pre-reclaim
    EpochFlip,     //!< reclaim unmarked blocks, clear the marks
    Verify,        //!< post-collection hook (heap verifier)
    kCount,
};

/** Printable stage name (diagnostics). */
const char *pauseStageName(PauseStage stage);

/** Cumulative collector statistics (drives Fig. 7's GC-time series). */
struct GcStats {
    /** Cap on the exact per-pause sample list below. */
    static constexpr std::size_t kMaxPauseSamples = 65536;

    std::uint64_t collections = 0;
    std::uint64_t totalPauseNanos = 0;
    std::uint64_t totalMarkNanos = 0;
    std::uint64_t totalSweepNanos = 0;
    //! In-pause verifier time, separated from the pause composition
    //! stats so verification cost is visible rather than folded in
    //! silently (the pause totals above still include it: the world
    //! really is stopped while the verifier walks).
    std::uint64_t totalVerifyNanos = 0;
    std::uint64_t objectsMarkedTotal = 0;
    //! The Mark stage's time and the objects its in-use closure marked,
    //! kept apart for collections whose closure applied an edge rule
    //! (leak pruning's SELECT and PRUNE, the offloader's offloading
    //! collections) and for the rest, so the cost of classification
    //! per marked object shows against plain marking.
    struct MarkCost {
        std::uint64_t nanos = 0;
        std::uint64_t objects = 0;
        double
        nsPerObject() const
        {
            return objects ? static_cast<double>(nanos) / static_cast<double>(objects)
                           : 0.0;
        }
    };
    MarkCost plainMark;
    MarkCost classifyingMark;
    std::uint64_t objectsFinalized = 0;
    std::uint64_t refsPoisonedTotal = 0;
    std::size_t lastLiveBytes = 0;
    std::uint64_t maxPauseNanos = 0;
    //! Safepoint-request -> world-stopped latency (mutator stop lag).
    std::uint64_t totalSafepointWaitNanos = 0;
    std::uint64_t maxSafepointWaitNanos = 0;
    //! Pause-time and safepoint-wait distributions.
    LogHistogram pauseHistogram;
    LogHistogram safepointWaitHistogram;
    //! Exact pause samples (nanos), capped at kMaxPauseSamples, for
    //! honest p50/p95 in reports; the histogram covers the overflow.
    std::vector<std::uint64_t> pauseSamplesNanos;
};

class Collector
{
  public:
    /**
     * @param heap the space to collect.
     * @param registry class layouts.
     * @param roots root-set enumerator (the VM).
     * @param threads mutator registry for the stop-the-world pause.
     * @param telemetry receives the GC-track phase spans of every pause.
     */
    Collector(Heap &heap, const ClassRegistry &registry, RootProvider &roots,
              ThreadRegistry &threads, Telemetry &telemetry);
    ~Collector();

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    /** Install (or clear) the collection plugin (leak pruning). */
    void setPlugin(CollectionPlugin *plugin) { plugin_ = plugin; }
    CollectionPlugin *plugin() const { return plugin_; }

    /**
     * Install a hook run at the end of every collection, after the
     * sweep and the plugin's endCollection but before the world
     * resumes. The heap verifier uses this to piggyback its full-heap
     * walk on the existing stop-the-world pause.
     */
    void
    setPostCollectionHook(std::function<void(const CollectionOutcome &)> hook)
    {
        post_collection_hook_ = std::move(hook);
    }

    /**
     * Perform one full-heap collection. The caller must already hold
     * the allocation lock (so no concurrent collection can start).
     *
     * The staleness clock ticks when @p due (the program allocated a
     * clock quantum since the last tick), or when @p retry (the
     * collection runs because an allocation failed outright) and the
     * plugin's policy ages through retries; see Runtime::collectLocked.
     *
     * @return the collection outcome (live bytes, fullness, whether
     *         the clock ticked, the trigger bytes the caches drained).
     */
    CollectionOutcome collect(bool due, bool retry);

    /**
     * Retire every mutator's chunk leases (world stopped) and return
     * the trigger bytes drained from them; emits the CacheRetireAll
     * span. Each collection does this first, so its epoch flip sees
     * every lease retired and the verifier exact byte accounting.
     */
    std::uint64_t retireCaches();

    const GcStats &stats() const { return stats_; }
    std::uint64_t epoch() const { return epoch_; }

  private:
    Heap &heap_;
    const ClassRegistry &registry_;
    RootProvider &roots_;
    ThreadRegistry &threads_;
    Tracer tracer_;
    CollectionPlugin *plugin_ = nullptr;
    Telemetry &telemetry_;
    std::function<void(const CollectionOutcome &)> post_collection_hook_;
    GcStats stats_;
    std::uint64_t epoch_ = 0;
};

} // namespace lp

#endif // LP_GC_COLLECTOR_H

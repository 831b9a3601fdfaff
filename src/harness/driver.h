/**
 * @file
 * The evaluation driver: runs one workload on a fresh Runtime under a
 * given configuration, recording everything the paper's tables and
 * figures need — iterations completed, how the run ended, reachable
 * memory after each collection (Figs. 1 and 9), time per iteration
 * (Figs. 8, 10 and 11), GC/barrier/pruning statistics, and the prune
 * log.
 */

#ifndef LP_HARNESS_DRIVER_H
#define LP_HARNESS_DRIVER_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/leak_workload.h"
#include "core/leak_pruning.h"
#include "core/pruning_report.h"
#include "gc/collector.h"
#include "util/series.h"
#include "vm/runtime.h"

namespace lp {

/** How a workload run ended. */
enum class EndReason {
    IterationCap,  //!< hit the driver's iteration cap ("runs indefinitely")
    TimeLimit,     //!< hit the driver's wall-clock limit (also "indefinitely")
    Finished,      //!< the program completed normally (Delaunay)
    OutOfMemory,   //!< OutOfMemoryError propagated to the driver
    PrunedAccess,  //!< InternalError: the program used a pruned reference
};

const char *endReasonName(EndReason r);

/** Driver knobs for one run. */
struct DriverConfig {
    std::size_t heapBytes = 0; //!< 0 = the workload's paper heap (2x live)
    /**
     * LeakPruning (default), the DiskOffload (LS/Melt) baseline, or
     * None: the unmodified runtime, with the read barriers compiled
     * out (BarrierMode::None).
     */
    ToleranceMode tolerance = ToleranceMode::LeakPruning;
    /** Disk budget for the offload baseline, as a multiple of heap. */
    double diskBudgetHeapMultiple = 4.0;
    Predictor predictor = Predictor::Default;
    PruneTrigger pruneTrigger = PruneTrigger::AfterSelect;
    /**
     * Pin the engine in one state for overhead measurement (paper
     * Section 5 "forces leak pruning to be in the SELECT state
     * continuously"). Never pruning happens while pinned.
     */
    std::optional<PruningState> pinState;
    /** maxStaleUse decay period in collections (0 = off; extension). */
    unsigned decayPeriod = 0;
    /** Candidate staleness margin (paper default 2). */
    unsigned staleUseMargin = 2;
    /** Edge-table slots (paper default 16K). */
    std::size_t edgeTableSlots = 16 * 1024;
    /**
     * Heap-verifier deployment for the run (forwarded to
     * RuntimeConfig::verifier): enable with everyNCollections=1 and
     * FailFast to assert a workload never violates a heap invariant.
     */
    HeapVerifierConfig verifier;
    std::uint64_t maxIterations = 200000;
    double maxSeconds = 20.0;
    bool recordSeries = false;  //!< keep per-iteration memory/time series
    std::uint64_t sampleEvery = 1;
    /**
     * Extra churn mutator threads run alongside the workload: each
     * registers as a mutator and allocates short-lived objects until
     * the run ends. The workloads themselves are single-threaded, so
     * this is how a run exercises (and a trace shows) multiple mutator
     * tracks, safepoint waits, and per-thread cache churn.
     */
    std::size_t extraMutators = 0;
    //! Non-empty: write a Chrome trace / the metrics JSON snapshot
    //! here at the end of the run.
    std::string tracePath;
    std::string metricsJsonPath;
};

/** Plain (non-atomic) copy of the barrier counters. */
struct BarrierCounters {
    std::uint64_t reads = 0;
    std::uint64_t coldPathHits = 0;
    std::uint64_t poisonThrows = 0;
};

/** Everything measured from one run. */
struct RunResult {
    std::string workload;
    DriverConfig config;
    EndReason end = EndReason::IterationCap;
    std::uint64_t iterations = 0;
    double seconds = 0.0;
    std::string endDetail;       //!< e.g. the error message

    Series memoryMb{"reachable MB"};   //!< vs iteration (if recorded)
    Series iterMillis{"ms/iteration"}; //!< vs iteration (if recorded)
    Series gcPerIter{"collections/iteration"}; //!< (if recorded)

    GcStats gc;
    BarrierCounters barrier;
    PruningStats pruning;              //!< zeroed when pruning disabled
    std::vector<PruneAuditRecord> pruneLog; //!< the audit trail's records
    PruningReport pruningReport;       //!< §3.2 diagnostics snapshot
    DiskOffloadStats offload;          //!< zeroed unless DiskOffload mode
    std::size_t edgeTypeCount = 0;     //!< Table 2's last column
    std::size_t heapBytes = 0;
    std::size_t maxLiveBytes = 0;      //!< peak post-GC reachable bytes
    //! Pruning-accuracy audit (telemetry); ungraded (zero records,
    //! accuracy 1.0) when nothing was pruned.
    PruneAuditSummary audit;

    /**
     * Pause-time percentile in nanos (p50: fraction=0.5): exact from
     * the collector's sample list while it holds every pause, else the
     * bound of the pause histogram's bucket holding it. 0 when no
     * collection ran.
     */
    std::uint64_t pausePercentileNanos(double fraction) const;

    /** iterations(this) / iterations(base), the paper's "NX longer". */
    double
    ratioVs(const RunResult &base) const
    {
        return base.iterations
            ? static_cast<double>(iterations) / static_cast<double>(base.iterations)
            : 0.0;
    }

    /**
     * FNV-1a over every prune record's (epoch, edge type, refs
     * poisoned), the outcome (iterations, out of memory or not) and,
     * under the disk-offload baseline, its offload, fault-in and disk
     * GC totals. Equal digests mean the runs made the same pruning or
     * offloading decisions.
     */
    std::uint64_t decisionDigest() const;

    /** True if the run was still alive when the driver stopped it. */
    bool
    survived() const
    {
        return end == EndReason::IterationCap || end == EndReason::TimeLimit ||
               end == EndReason::Finished;
    }
};

/** Run @p info's workload under @p config on a fresh Runtime. */
RunResult runWorkload(const WorkloadInfo &info, const DriverConfig &config);

/** Shorthand: look up by name (fatal if unknown) and run. */
RunResult runWorkloadByName(const std::string &name, const DriverConfig &config);

/**
 * Format the paper's "effect" column: "runs indefinitely (cap)",
 * "4.7X longer", "no help", etc., given a base and a pruning run.
 */
std::string describeEffect(const RunResult &base, const RunResult &pruned);

} // namespace lp

#endif // LP_HARNESS_DRIVER_H

/**
 * @file
 * The benchmark's four seeded, closed-loop workloads and what one
 * timed phase of each measures. Every mutator thread issues its next
 * request only when the previous one returns; no workload uses more
 * than four threads, counting the collector's worker.
 */

#ifndef LPBENCH_WORKLOADS_H
#define LPBENCH_WORKLOADS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "probe.h"

namespace lpbench {

/** Mutator threads per workload and the collector's parallelism. */
struct ThreadPlan {
    unsigned mutators = 1;
    /**
     * The collecting mutator marks and sweeps alone. With a pool
     * thread, every pause also waited for that thread to be scheduled,
     * which on a shared 4-vCPU host made pause times bimodal (about 2 ms
     * or 4 ms for the same read_mostly mark) from run to run.
     */
    unsigned gcThreads = 1;
};

struct PhaseConfig {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
};

/** One correctness check, evaluated outside the timed region. */
struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
};

/**
 * Layer counters summed over every runtime a phase used, each taken as
 * the change across the timed region only.
 */
struct LayerTotals {
    // gc / threads
    std::uint64_t collections = 0;
    std::uint64_t pauseNs = 0;
    std::uint64_t markNs = 0;
    std::uint64_t sweepNs = 0;
    std::uint64_t verifyNs = 0;
    std::uint64_t objectsMarked = 0;
    std::uint64_t safepointWaitNs = 0;
    std::uint64_t safepointWaitMaxNs = 0;
    // heap
    std::uint64_t allocations = 0;
    std::uint64_t bytesAllocated = 0;
    std::uint64_t failedAllocations = 0;
    std::uint64_t bytesFreed = 0;
    double fullnessEndSum = 0; //!< over runtimes, at the end of each
    std::uint64_t runtimes = 0;
    // vm read barrier
    std::uint64_t reads = 0;
    std::uint64_t coldHits = 0;
    std::uint64_t poisonThrows = 0;
    // core (leak pruning)
    std::uint64_t selectGcs = 0;
    std::uint64_t pruneGcs = 0;
    std::uint64_t candidatesQueued = 0;
    std::uint64_t staleBytesSized = 0;
    std::uint64_t refsPoisoned = 0;
    std::uint64_t edgeTypes = 0; //!< largest edge table seen
    std::uint64_t auditBytesReclaimed = 0;
    std::uint64_t auditBytesMispredicted = 0;
};

/** What one timed phase measured. */
struct PhaseResult {
    double wallSeconds = 0;              //!< timed region(s) only
    std::vector<double> setupSeconds;    //!< one per runtime built
    Reservoir latency{0, 0};             //!< completed requests, ns
    std::uint64_t attempted = 0;         //!< requests issued
    std::uint64_t completed = 0;         //!< requests that returned
    std::uint64_t unexpectedErrors = 0;  //!< errors the workload forbids
    std::vector<std::uint64_t> pauseNs;  //!< every pause in the region
    LayerTotals layers;
    std::vector<Check> checks;

    // Traced phases only.
    std::array<OpTally, kSpanKinds> tallies{};
    Reservoir allocNs{0, 0};
    std::uint64_t spansKept = 0;
    std::uint64_t spansDropped = 0;
    std::uint64_t requestNsInSpans = 0; //!< requests whose spans were kept
    std::uint64_t selfNsInSpans = 0;    //!< ... minus their children

    void absorbProbe(DirectProbe &p) { latency.merge(p.latency()); }
    void absorbProbe(TracedProbe &p);
};

/** Run one timed phase of @p workload; false if the name is unknown. */
bool runPhase(const std::string &workload, const PhaseConfig &cfg,
              PhaseResult &out);

/** Thread plan of @p workload (provenance). */
ThreadPlan threadPlan(const std::string &workload);

/** Every workload name; BENCHMARK.json lists all but alloc_churn. */
const std::vector<std::string> &workloadNames();

/** Alternating repetitions the barrier calibration takes the median of. */
constexpr int kBarrierReps = 5;

/**
 * Barrier calibration: time the same seeded read_mostly walk over the
 * same seeded graph with BarrierMode::AllTheTime and with
 * BarrierMode::None. @return the time ratio, all-the-time over none.
 */
double barrierOverheadX(std::uint64_t seed);

} // namespace lpbench

#endif // LPBENCH_WORKLOADS_H

#include "harness/driver.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <thread>
#include <vector>

#include "core/errors.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/timer.h"

namespace lp {

namespace {

/**
 * Extra mutator threads churning short-lived allocations beside the
 * workload. Every object is dropped immediately, so the live set (and
 * the workload's pruning behaviour) is unchanged — the churn just
 * exercises the multi-threaded paths: per-thread caches, safepoint
 * parking, and one telemetry trace track per thread.
 */
class ChurnMutators
{
  public:
    ChurnMutators(Runtime &rt, std::size_t count) : rt_(rt)
    {
        if (count == 0)
            return;
        churn_cls_ = rt_.defineClass("harness.Churn", 2, 16);
        threads_.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            threads_.emplace_back([this, i] { run(i); });
    }

    ~ChurnMutators()
    {
        stop_.store(true, std::memory_order_relaxed);
        // While joining, this thread must count as being at a
        // safepoint: a churn thread may trigger a collection, and the
        // collector would otherwise wait forever for the joiner.
        BlockedScope blocked(rt_.threads());
        for (std::thread &t : threads_)
            t.join();
    }

  private:
    void
    run(std::size_t index)
    {
        MutatorScope scope(rt_.threads());
        rt_.telemetry()->setThreadName("churn-" + std::to_string(index));
        try {
            while (!stop_.load(std::memory_order_relaxed))
                rt_.allocate(churn_cls_);
        } catch (const std::exception &) {
            // The heap died under the workload (OOM / pruned access);
            // the driver reports that from the workload thread.
        }
    }

    Runtime &rt_;
    class_id_t churn_cls_ = 0;
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

} // namespace

const char *
endReasonName(EndReason r)
{
    switch (r) {
      case EndReason::IterationCap: return "iteration cap";
      case EndReason::TimeLimit: return "time limit";
      case EndReason::Finished: return "finished";
      case EndReason::OutOfMemory: return "OutOfMemoryError";
      case EndReason::PrunedAccess: return "InternalError (pruned access)";
    }
    return "?";
}

RunResult
runWorkload(const WorkloadInfo &info, const DriverConfig &config)
{
    RunResult result;
    result.workload = info.name;
    result.config = config;

    std::unique_ptr<LeakWorkload> workload = info.make();

    RuntimeConfig rc;
    rc.heapBytes = config.heapBytes ? config.heapBytes
                                    : workload->defaultHeapBytes();
    rc.tolerance = config.tolerance;
    rc.offload.diskBudgetBytes = static_cast<std::size_t>(
        config.diskBudgetHeapMultiple * static_cast<double>(rc.heapBytes));
    rc.barrierMode = config.tolerance == ToleranceMode::None
                         ? BarrierMode::None
                         : BarrierMode::AllTheTime;
    rc.pruning.predictor = config.predictor;
    rc.pruning.pruneTrigger = config.pruneTrigger;
    rc.pruning.maxStaleUseDecayPeriod = config.decayPeriod;
    rc.pruning.staleUseMargin = config.staleUseMargin;
    rc.pruning.edgeTableSlots = config.edgeTableSlots;
    rc.verifier = config.verifier;
    result.heapBytes = rc.heapBytes;

    Runtime rt(rc);
    if (config.pinState && rt.pruning())
        rt.pruning()->pinStateForEvaluation(config.pinState);
    rt.telemetry()->setThreadName(info.name);
    workload->setUp(rt);
    auto churn = std::make_unique<ChurnMutators>(rt, config.extraMutators);

    Timer wall;
    wall.start();
    std::uint64_t iter = 0;
    std::uint64_t last_gc_count = 0;
    try {
        for (; iter < config.maxIterations; ++iter) {
            if (workload->finished(iter)) {
                result.end = EndReason::Finished;
                break;
            }
            const std::uint64_t t0 = nowNanos();
            workload->iterate(rt, iter);
            const std::uint64_t t1 = nowNanos();
            result.maxLiveBytes = std::max(result.maxLiveBytes,
                                           rt.lastLiveBytes());

            if (config.recordSeries && iter % config.sampleEvery == 0) {
                result.iterMillis.add(static_cast<double>(iter + 1),
                                      static_cast<double>(t1 - t0) * 1e-6);
                result.memoryMb.add(
                    static_cast<double>(iter + 1),
                    static_cast<double>(rt.lastLiveBytes()) / (1024.0 * 1024.0));
                const std::uint64_t gc_now = rt.gcStats().collections;
                result.gcPerIter.add(static_cast<double>(iter + 1),
                                     static_cast<double>(gc_now - last_gc_count));
                last_gc_count = gc_now;
            }
            if (wall.elapsedSeconds() > config.maxSeconds) {
                result.end = EndReason::TimeLimit;
                ++iter;
                break;
            }
        }
        if (iter >= config.maxIterations)
            result.end = EndReason::IterationCap;
    } catch (const InternalError &err) {
        result.end = EndReason::PrunedAccess;
        result.endDetail = err.what();
        if (err.cause())
            result.endDetail += std::string(" (cause: ") + err.cause()->what() + ")";
    } catch (const OutOfMemoryError &err) {
        result.end = EndReason::OutOfMemory;
        result.endDetail = err.what();
    }
    wall.stop();
    // Join the churn threads before reading any statistics: a running
    // mutator could still trigger a collection and mutate them.
    churn.reset();

    result.iterations = iter;
    result.seconds = wall.elapsedSeconds();
    result.gc = rt.gcStats();
    const BarrierStats barrier = rt.barrierStats();
    result.barrier.reads = barrier.reads.load();
    result.barrier.coldPathHits = barrier.coldPathHits.load();
    result.barrier.poisonThrows = barrier.poisonThrows.load();
    if (rt.pruning()) {
        result.pruning = rt.pruning()->stats();
        result.pruneLog = rt.telemetry()->audit().records();
        result.edgeTypeCount = rt.pruning()->edgeTable().count();
        result.pruningReport =
            buildPruningReport(*rt.pruning(), rt.telemetry()->audit());
    }
    result.audit = rt.telemetry()->audit().summary();
    if (rt.diskOffload())
        result.offload = rt.diskOffload()->stats();

    if (!config.tracePath.empty() && !rt.writeTrace(config.tracePath))
        warn("could not write trace to ", config.tracePath,
             " (path unwritable)");
    if (!config.metricsJsonPath.empty() &&
        !rt.writeMetricsJson(config.metricsJsonPath))
        warn("could not write metrics to ", config.metricsJsonPath);

    // The workload (with its GlobalRoots) must die before the Runtime.
    workload.reset();
    return result;
}

std::uint64_t
RunResult::pausePercentileNanos(double fraction) const
{
    // The sample list stops at GcStats::kMaxPauseSamples; the
    // histogram holds every pause.
    if (gc.collections > gc.pauseSamplesNanos.size())
        return gc.pauseHistogram.percentileBound(fraction);
    if (gc.pauseSamplesNanos.empty())
        return 0;
    std::vector<std::uint64_t> s = gc.pauseSamplesNanos;
    const std::size_t idx = std::min(
        s.size() - 1,
        static_cast<std::size_t>(fraction * static_cast<double>(s.size() - 1) +
                                 0.5));
    std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(idx),
                     s.end());
    return s[idx];
}

std::uint64_t
RunResult::decisionDigest() const
{
    std::vector<std::uint64_t> words;
    for (const PruneAuditRecord &rec : pruneLog) {
        words.push_back(rec.epoch);
        words.push_back(rec.srcClass);
        words.push_back(rec.tgtClass);
        words.push_back(rec.refsPoisoned);
    }
    words.push_back(iterations);
    words.push_back(end == EndReason::OutOfMemory);
    if (offload != DiskOffloadStats{}) {
        words.push_back(offload.offloadCollections);
        words.push_back(offload.objectsOffloaded);
        words.push_back(offload.bytesOffloaded);
        words.push_back(offload.objectsRetrieved);
        words.push_back(offload.recordsCollected);
        words.push_back(offload.diskExhausted);
    }
    return fnv1a(words.data(), words.size() * sizeof(words[0]));
}

RunResult
runWorkloadByName(const std::string &name, const DriverConfig &config)
{
    registerAllWorkloads();
    const WorkloadInfo *info = WorkloadRegistry::instance().find(name);
    if (!info)
        fatal("unknown workload: ", name);
    return runWorkload(*info, config);
}

std::string
describeEffect(const RunResult &base, const RunResult &pruned)
{
    std::ostringstream oss;
    const double ratio = pruned.ratioVs(base);
    if (pruned.end == EndReason::Finished) {
        oss << "completes normally";
    } else if (pruned.survived()) {
        oss << "runs >" << std::fixed << std::setprecision(1) << ratio
            << "X longer (alive at "
            << (pruned.end == EndReason::IterationCap ? "iteration cap"
                                                      : "time limit")
            << ")";
    } else if (ratio >= 1.5) {
        oss << "runs " << std::fixed << std::setprecision(1) << ratio
            << "X longer";
    } else {
        oss << "no help (" << std::setprecision(2) << ratio << "X)";
    }
    return oss.str();
}

} // namespace lp

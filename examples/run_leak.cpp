/**
 * @file
 * Command-line runner for any registered workload — the equivalent of
 * launching one of the paper's leaky programs on the leak-pruning VM.
 *
 * Usage:
 *   run_leak --list
 *   run_leak --workload EclipseDiff [options]
 *
 * Options:
 *   --workload NAME     which program to run (see --list)
 *   --no-pruning        unmodified-VM baseline (no barriers)
 *   --disk-offload      LeakSurvivor/Melt-style baseline (move stale
 *                       objects to disk instead of pruning; §6.1/§7)
 *   --disk-multiple X   disk budget as a multiple of the heap (def. 4)
 *   --predictor P       default | most-stale | indiv-refs   (Section 6.1)
 *   --trigger T         after-select | only-when-exhausted  (Section 3.1)
 *   --heap MB           heap size in MB (default: the workload's)
 *   --iters N           iteration cap (default 200000)
 *   --seconds S         wall-clock cap (default 20)
 *   --series            print reachable-memory / time-per-iteration series
 *   --mutators N        extra churn mutator threads (multi-track traces)
 *   --trace PATH        write a Chrome trace-event JSON (Perfetto /
 *                       chrome://tracing) of the run
 *   --metrics PATH      write the collector's statistics (collections,
 *                       live bytes, pause and safepoint-wait
 *                       histograms) as JSON
 *   --verbose           leak-pruning progress messages
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "apps/leak_workload.h"
#include "harness/driver.h"
#include "harness/report.h"

using namespace lp;

namespace {

void
listWorkloads()
{
    registerAllWorkloads();
    TextTable table({"workload", "leaking", "description"});
    for (const WorkloadInfo *info : WorkloadRegistry::instance().all())
        table.addRow({info->name, info->leaking ? "yes" : "no",
                      info->description});
    table.print(std::cout);
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr, "usage: run_leak --list | --workload NAME "
                         "[--no-pruning] [--disk-offload] "
                         "[--disk-multiple X] [--predictor P] [--trigger T] "
                         "[--heap MB] [--iters N] [--seconds S] [--series] "
                         "[--mutators N] [--trace PATH] [--metrics PATH] "
                         "[--verbose]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    DriverConfig config;
    bool series = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--list") {
            listWorkloads();
            return 0;
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--no-pruning") {
            config.enablePruning = false;
        } else if (arg == "--disk-offload") {
            // The LeakSurvivor/Melt-style baseline (paper §6.1/§7).
            config.tolerance = ToleranceMode::DiskOffload;
        } else if (arg == "--disk-multiple") {
            config.diskBudgetHeapMultiple =
                std::strtod(next().c_str(), nullptr);
        } else if (arg == "--predictor") {
            const std::string p = next();
            if (p == "default") config.predictor = Predictor::Default;
            else if (p == "most-stale") config.predictor = Predictor::MostStale;
            else if (p == "indiv-refs") config.predictor = Predictor::IndividualRefs;
            else usage();
        } else if (arg == "--trigger") {
            const std::string t = next();
            if (t == "after-select") config.pruneTrigger = PruneTrigger::AfterSelect;
            else if (t == "only-when-exhausted")
                config.pruneTrigger = PruneTrigger::OnlyWhenExhausted;
            else usage();
        } else if (arg == "--heap") {
            config.heapBytes = std::strtoull(next().c_str(), nullptr, 10) << 20;
        } else if (arg == "--iters") {
            config.maxIterations = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            config.maxSeconds = std::strtod(next().c_str(), nullptr);
        } else if (arg == "--series") {
            series = true;
            config.recordSeries = true;
        } else if (arg == "--mutators") {
            config.extraMutators = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--trace") {
            config.tracePath = next();
        } else if (arg == "--metrics") {
            config.metricsJsonPath = next();
        } else if (arg == "--verbose") {
            setLogLevel(LogLevel::Info);
        } else {
            usage();
        }
    }
    if (workload.empty())
        usage();

    const RunResult result = runWorkloadByName(workload, config);

    std::printf("workload:    %s\n", result.workload.c_str());
    std::printf("heap:        %.1f MB\n",
                static_cast<double>(result.heapBytes) / (1024.0 * 1024.0));
    std::printf("pruning:     %s\n",
                config.enablePruning ? "enabled" : "disabled (baseline)");
    std::printf("iterations:  %llu\n",
                static_cast<unsigned long long>(result.iterations));
    std::printf("wall time:   %.2f s\n", result.seconds);
    std::printf("end:         %s%s%s\n", endReasonName(result.end),
                result.endDetail.empty() ? "" : " - ",
                result.endDetail.c_str());
    std::printf("collections: %llu (%.1f ms total pause)\n",
                static_cast<unsigned long long>(result.gc.collections),
                static_cast<double>(result.gc.totalPauseNanos) * 1e-6);
    if (result.gc.collections > 0) {
        std::printf("gc pause:    p50 %.2f ms, p95 %.2f ms, max %.2f ms\n",
                    static_cast<double>(result.pausePercentileNanos(0.5)) * 1e-6,
                    static_cast<double>(result.pausePercentileNanos(0.95)) * 1e-6,
                    static_cast<double>(result.gc.maxPauseNanos) * 1e-6);
    }
    std::printf("barrier:     %llu reads, %llu cold-path hits\n",
                static_cast<unsigned long long>(result.barrier.reads),
                static_cast<unsigned long long>(result.barrier.coldPathHits));
    if (config.tolerance == ToleranceMode::DiskOffload &&
        config.enablePruning) {
        std::printf("offload:     %llu objects moved (%0.1f MB), %llu "
                    "retrieved, %llu disk records GC'd, disk %s\n",
                    static_cast<unsigned long long>(
                        result.offload.objectsOffloaded),
                    static_cast<double>(result.offload.bytesOffloaded) /
                        (1024.0 * 1024.0),
                    static_cast<unsigned long long>(
                        result.offload.objectsRetrieved),
                    static_cast<unsigned long long>(
                        result.offload.recordsCollected),
                    result.offload.diskExhausted ? "EXHAUSTED" : "ok");
    } else if (config.enablePruning) {
        std::printf("pruning:     %llu refs poisoned across %llu prune GCs; "
                    "%llu edge types in table\n",
                    static_cast<unsigned long long>(result.pruning.refsPoisoned),
                    static_cast<unsigned long long>(result.pruning.pruneCollections),
                    static_cast<unsigned long long>(result.edgeTypeCount));
        for (const PruneAuditRecord &rec : result.pruneLog) {
            std::printf("  prune@GC%llu: %s  x%llu (structure bytes %llu, "
                        "stale level %u)\n",
                        static_cast<unsigned long long>(rec.epoch),
                        rec.typeName.c_str(),
                        static_cast<unsigned long long>(rec.refsPoisoned),
                        static_cast<unsigned long long>(rec.bytesReclaimed),
                        rec.staleLevel);
        }
        if (result.audit.graded) {
            std::printf("accuracy:    %.1f%% (%llu poison accesses after "
                        "pruning, %llu bytes mispredicted of %llu pruned)\n",
                        result.audit.accuracy * 100.0,
                        static_cast<unsigned long long>(
                            result.audit.poisonHits +
                            result.audit.unattributedHits),
                        static_cast<unsigned long long>(
                            result.audit.bytesMispredicted),
                        static_cast<unsigned long long>(
                            result.audit.bytesReclaimed));
        }
    }
    std::printf("decision digest: %016llx\n",
                static_cast<unsigned long long>(result.decisionDigest()));
    if (series) {
        SeriesChart memory("reachable memory", "iteration", "MB");
        memory.addSeries(result.memoryMb);
        SeriesChart time("time per iteration", "iteration", "ms");
        time.addSeries(result.iterMillis);
        memory.print(std::cout, 24, true);
        time.print(std::cout, 24, true);
    }
    return 0;
}

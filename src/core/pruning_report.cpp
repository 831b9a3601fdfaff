#include "core/pruning_report.h"

#include <algorithm>
#include <sstream>

#include "core/leak_pruning.h"
#include "telemetry/audit.h"

namespace lp {

PruningReport
buildPruningReport(const LeakPruning &engine, const PruneAuditTrail &audit)
{
    PruningReport report;
    const auto oom = engine.avertedOutOfMemory();
    report.memoryExhausted = oom != nullptr;
    if (oom)
        report.oomMessage = oom->what();
    report.totalRefsPoisoned = engine.stats().refsPoisoned;
    report.pruneCollections = engine.stats().pruneCollections;
    report.edgeTypesObserved = engine.edgeTable().count();

    const PruneAuditSummary summary = audit.summary();
    report.poisonAccessesPostPrune =
        summary.poisonHits + summary.unattributedHits;
    report.bytesMispredicted = summary.bytesMispredicted;
    report.accuracyGraded = summary.graded;
    report.predictionAccuracy = summary.accuracy;

    for (const PruneAuditRecord &rec : audit.records()) {
        auto it = std::find_if(report.suspects.begin(), report.suspects.end(),
                               [&](const LeakSuspect &s) {
                                   return s.typeName == rec.typeName;
                               });
        if (it == report.suspects.end()) {
            report.suspects.push_back(
                LeakSuspect{EdgeType{rec.srcClass, rec.tgtClass}, rec.typeName,
                            1, rec.refsPoisoned, rec.bytesReclaimed,
                            rec.poisonHits});
        } else {
            ++it->timesSelected;
            it->refsPoisoned += rec.refsPoisoned;
            it->structureBytes += rec.bytesReclaimed;
            it->poisonAccessHits += rec.poisonHits;
        }
    }
    std::sort(report.suspects.begin(), report.suspects.end(),
              [](const LeakSuspect &a, const LeakSuspect &b) {
                  return a.structureBytes > b.structureBytes;
              });
    return report;
}

std::string
PruningReport::toString() const
{
    std::ostringstream oss;
    if (memoryExhausted)
        oss << "out-of-memory warning: " << oomMessage << "\n";
    else
        oss << "the program never exhausted memory\n";
    oss << "pruned " << totalRefsPoisoned << " reference(s) across "
        << pruneCollections << " prune collection(s); " << edgeTypesObserved
        << " edge type(s) observed\n";
    if (accuracyGraded) {
        oss << "prediction accuracy " << predictionAccuracy * 100.0 << "% ("
            << poisonAccessesPostPrune << " poison access(es) after pruning, "
            << bytesMispredicted << " bytes mispredicted)\n";
    }
    if (suspects.empty()) {
        oss << "no data structures were pruned\n";
        return oss.str();
    }
    oss << "likely leak roots (retained but never used again):\n";
    int rank = 1;
    for (const LeakSuspect &s : suspects) {
        oss << "  " << rank++ << ". " << s.typeName << ": " << s.refsPoisoned
            << " refs, " << s.structureBytes << " stale structure bytes, "
            << "selected " << s.timesSelected << "x\n";
    }
    return oss.str();
}

} // namespace lp

/**
 * @file
 * Structured leak diagnostics from the pruning engine.
 *
 * Paper Section 3.2: "To help programmers, leak pruning optionally
 * reports (1) an out-of-memory warning when the program first runs
 * out of memory and (2) the data structures it prunes." This module
 * turns the audit trail's prune records into that report: a ranked
 * list of the reference types the program retained but never used
 * again — i.e. where the leak lives and what fixing it would reclaim.
 */

#ifndef LP_CORE_PRUNING_REPORT_H
#define LP_CORE_PRUNING_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

#include "gc/edge_table.h"

namespace lp {

class LeakPruning;
class PruneAuditTrail;

/** One suspicious reference type, aggregated over all prunes. */
struct LeakSuspect {
    EdgeType type;
    std::string typeName;          //!< "SrcClass -> TgtClass"
    std::uint64_t timesSelected = 0;
    std::uint64_t refsPoisoned = 0;
    std::uint64_t structureBytes = 0; //!< stale bytes charged at selection
    //! Later accesses of this type's pruned references (InternalErrors
    //! attributed by the audit trail); 0 = the prediction held.
    std::uint64_t poisonAccessHits = 0;
};

/** The full diagnostic picture at one point in time. */
struct PruningReport {
    bool memoryExhausted = false;   //!< the program hit OOM at least once
    std::string oomMessage;         //!< the deferred error's message
    std::uint64_t totalRefsPoisoned = 0;
    std::uint64_t pruneCollections = 0;
    std::size_t edgeTypesObserved = 0;
    std::vector<LeakSuspect> suspects; //!< sorted by structureBytes desc

    // Prediction grading, sourced from the telemetry audit trail
    // (zeros/ungraded when nothing was pruned).
    std::uint64_t poisonAccessesPostPrune = 0; //!< attributed + unattributed
    std::uint64_t bytesMispredicted = 0; //!< bytes of hit decisions
    bool accuracyGraded = false;         //!< at least one prune happened
    /** 1 - mispredicted/pruned bytes; 1.0 when nothing was pruned. */
    double predictionAccuracy = 1.0;

    /** Human-readable multi-line rendering. */
    std::string toString() const;
};

/**
 * Aggregate @p audit's prune records into a ranked report that also
 * grades the predictions: per-suspect poison-access hits and the run's
 * overall accuracy. @p engine supplies the out-of-memory warning and
 * the run's totals.
 */
PruningReport buildPruningReport(const LeakPruning &engine,
                                 const PruneAuditTrail &audit);

} // namespace lp

#endif // LP_CORE_PRUNING_REPORT_H

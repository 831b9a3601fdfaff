/**
 * @file
 * The pruning-accuracy audit trail.
 *
 * The paper's central empirical claim is that staleness-based edge
 * selection rarely prunes memory the program still needs; its
 * evaluation counts how often a pruned reference is later touched
 * (triggering the InternalError of Section 4.4). This module records
 * exactly the evidence needed to compute that per run:
 *
 *  - every PRUNE-state decision, with the selected class pair, the
 *    staleness level that won selection, the references poisoned, and
 *    the stale-structure bytes reclaimed by the decision;
 *  - every later poison access from the read-barrier cold path,
 *    attributed back to the decision that poisoned the reference (by
 *    source class — the target's memory is gone, so the source end of
 *    the edge is all the barrier can still name).
 *
 * The trail is the run's one list of prune decisions: the pruning
 * engine writes each record once, at the end of the PRUNE collection
 * that poisoned the references, and the pruning report, the harness's
 * RunResult::pruneLog and its decision digest all read these records.
 *
 * Prediction accuracy = 1 - (bytes of decisions whose references were
 * later accessed) / (total bytes pruned). A run with no prunes has no
 * prediction to grade (summary().accuracy = 1, graded = false).
 *
 * Recording a prune happens inside the stop-the-world pause; recording
 * a poison access happens on a mutator's barrier cold path immediately
 * before it throws. Both are rare, so a plain mutex is fine.
 */

#ifndef LP_TEL_AUDIT_H
#define LP_TEL_AUDIT_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace lp {

/** One PRUNE decision plus its later poison-access evidence. */
struct PruneAuditRecord {
    std::uint64_t epoch = 0;     //!< collection that pruned
    bool hasType = false;        //!< class pair valid (not MostStale)
    //! The selected edge type; an untyped decision holds the invalid
    //! class id (kInvalidClassId) at both ends, as EdgeType{} does.
    std::uint32_t srcClass = 0;
    std::uint32_t tgtClass = 0;
    std::string typeName;        //!< "Src -> Tgt" or "<staleness level k>"
    unsigned staleLevel = 0;     //!< staleness level that won selection
    std::uint64_t refsPoisoned = 0;
    std::uint64_t bytesReclaimed = 0; //!< stale-structure bytes of the prune
    std::uint64_t poisonHits = 0;     //!< later accesses of its pruned refs
};

/** Aggregate accuracy picture over a whole run. */
struct PruneAuditSummary {
    std::uint64_t records = 0;
    std::uint64_t refsPoisoned = 0;
    std::uint64_t bytesReclaimed = 0;
    std::uint64_t poisonHits = 0;        //!< attributed accesses
    std::uint64_t unattributedHits = 0;  //!< no matching decision found
    std::uint64_t bytesMispredicted = 0; //!< bytes of hit decisions
    bool graded = false;                 //!< at least one prune happened
    /** 1 - mispredicted/total bytes; 1.0 when nothing was pruned. */
    double accuracy = 1.0;
};

class PruneAuditTrail
{
  public:
    PruneAuditTrail() = default;

    PruneAuditTrail(const PruneAuditTrail &) = delete;
    PruneAuditTrail &operator=(const PruneAuditTrail &) = delete;

    /** Record one PRUNE decision (poisonHits in @p rec is ignored). */
    void recordPrune(PruneAuditRecord rec);

    /**
     * Record a barrier cold-path access to a poisoned reference whose
     * source object has class @p src_class. Attributed to the newest
     * decision with that source class, falling back to the newest
     * untyped (MostStale) decision, else counted unattributed.
     */
    void recordPoisonAccess(std::uint32_t src_class);

    /**
     * Totals over every decision, read in one pass. The heap verifier
     * checks refsPoisoned against the engine's own running count,
     * which it keeps apart from the records; disagreement means a
     * decision was lost or double-counted.
     */
    PruneAuditSummary summary() const;

    /** Snapshot of every decision (with hit counts). */
    std::vector<PruneAuditRecord> records() const;

  private:
    mutable std::mutex mutex_;
    std::vector<PruneAuditRecord> records_;
    std::uint64_t unattributed_hits_ = 0;
};

} // namespace lp

#endif // LP_TEL_AUDIT_H

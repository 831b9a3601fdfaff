/**
 * @file
 * The leak-pruning engine: a CollectionPlugin implementing the paper's
 * algorithm (Sections 3 and 4) plus the two alternative predictors of
 * Section 6.1.
 *
 * Responsibilities:
 *  - drive the INACTIVE/OBSERVE/SELECT/PRUNE state machine from
 *    end-of-collection heap fullness;
 *  - maintain per-object staleness (increment the 3-bit logarithmic
 *    counter of every marked object when the collection number is a
 *    multiple of 2^k);
 *  - maintain the edge table from read-barrier use reports;
 *  - in SELECT, divide the closure into the in-use and stale phases
 *    (the in-use closure defers the edges the published rule matches),
 *    size candidate data structures, and pick the edge type holding
 *    the most stale bytes;
 *  - in PRUNE, poison matching references so the sweep reclaims
 *    everything only they reached, and write the decision to the
 *    telemetry audit trail (paper Section 3.2's report of "the data
 *    structures it prunes");
 *  - record the deferred OutOfMemoryError and hand it to the read
 *    barrier as the cause of InternalErrors on poisoned accesses.
 */

#ifndef LP_CORE_LEAK_PRUNING_H
#define LP_CORE_LEAK_PRUNING_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/config.h"
#include "core/errors.h"
#include "core/state_machine.h"
#include "gc/edge_table.h"
#include "gc/plugin.h"

namespace lp {

class Telemetry;
class Tracer;

/** Aggregated pruning statistics. */
struct PruningStats {
    std::uint64_t observeCollections = 0;
    std::uint64_t selectCollections = 0;
    std::uint64_t pruneCollections = 0;
    std::uint64_t candidatesQueued = 0;
    std::uint64_t staleBytesSized = 0;  //!< bytes seen by stale closures
    std::uint64_t refsPoisoned = 0;
};

class LeakPruning : public CollectionPlugin
{
  public:
    /**
     * @param registry class metadata for edge typing and diagnostics.
     * @param config thresholds, predictor, trigger option.
     * @param telemetry receives one audit record and one prune-decision
     *        instant per PRUNE collection that poisoned references.
     */
    LeakPruning(const ClassRegistry &registry, LeakPruningConfig config,
                Telemetry &telemetry);
    ~LeakPruning() override;

    LeakPruning(const LeakPruning &) = delete;
    LeakPruning &operator=(const LeakPruning &) = delete;

    // --- CollectionPlugin ------------------------------------------------

    TracePolicy beginCollection(std::uint64_t epoch) override;
    void afterInUseClosure(Tracer &tracer) override;
    void endCollection(const CollectionOutcome &outcome) override;

    // --- read-barrier interface ------------------------------------------

    /**
     * The barrier's cold path observed the program using a src->tgt
     * reference whose target's stale counter held @p stale_counter.
     * Updates the edge type's maxStaleUse (paper Section 4.1).
     */
    void onReferenceUsed(class_id_t src, class_id_t tgt, unsigned stale_counter);

    /** True when the barrier staleness protocol should be active. */
    bool
    observing() const
    {
        return effectiveState() != PruningState::Inactive;
    }

    /** The state governing the next collection (honors pinning). */
    PruningState
    effectiveState() const
    {
        return pinned_state_.value_or(machine_.state());
    }

    // --- runtime (allocation-path) interface -------------------------------

    /**
     * Allocation still failed after a collection: the program has
     * exhausted memory. Records (once) the deferred OutOfMemoryError
     * and, under the OnlyWhenExhausted trigger, unlocks pruning. Then
     * answers whether the runtime should collect again rather than
     * throw: true while a selection is pending or the last prune made
     * progress.
     *
     * @param rounds_so_far collections already run for this allocation.
     */
    bool memoryExhausted(std::size_t requested_bytes, std::uint64_t epoch,
                         unsigned rounds_so_far) override;

    /** The recorded first out-of-memory error (null until exhaustion). */
    std::shared_ptr<const OutOfMemoryError> avertedOutOfMemory() const;

    // --- introspection -----------------------------------------------------

    PruningState state() const { return machine_.state(); }
    const EdgeTable &edgeTable() const { return edge_table_; }

    /** True once at least one PRUNE-state collection has run. */
    bool hasPruned() const { return machine_.hasPruned(); }

    /** The edge type chosen by the last SELECT collection, if any. */
    const std::optional<EdgeEntrySnapshot> &selectedEdge() const { return selected_; }

    /** Jump the state machine (tests drive precise scenarios with it). */
    void forceState(PruningState s) { machine_.forceState(s); }
    const PruningStats &stats() const { return stats_; }
    const LeakPruningConfig &config() const { return config_; }

    /** Human-readable "Src -> Tgt" name for an edge type. */
    std::string edgeTypeName(EdgeType type) const;

    /**
     * Evaluation hook (paper Section 5): pin the engine in one state
     * regardless of heap fullness. "Observe" measures staleness
     * maintenance; "Select" additionally runs the stale closure and
     * selection every collection without ever pruning. Pass nullopt to
     * restore normal state-machine operation.
     */
    void pinStateForEvaluation(std::optional<PruningState> state);

  private:
    void runStaleClosure(Tracer &tracer);

    const ClassRegistry &registry_;
    Telemetry &telemetry_;
    LeakPruningConfig config_;
    StateMachine machine_;
    EdgeTable edge_table_;

    // Per-collection context (set in beginCollection).
    PruningState active_state_ = PruningState::Inactive;
    std::optional<PruningState> pinned_state_;

    // Selection carried from a SELECT collection to the PRUNE one.
    std::optional<EdgeEntrySnapshot> selected_;

    // Most-stale predictor: the level the last SELECT found. Written
    // only by collection hooks (one thread, world stopped), so a plain
    // member.
    unsigned most_stale_level_ = 0;

    // Outcome of the most recent collection, for memoryExhausted.
    PruningState last_gc_state_ = PruningState::Inactive;
    std::uint64_t last_gc_poisoned_ = 0;

    std::shared_ptr<const OutOfMemoryError> averted_oom_;
    mutable std::mutex oom_mutex_;

    PruningStats stats_;
};

} // namespace lp

#endif // LP_CORE_LEAK_PRUNING_H

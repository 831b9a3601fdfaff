#include "core/leak_pruning.h"

#include <algorithm>
#include <span>
#include <utility>

#include "gc/tracer.h"
#include "object/object.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace lp {

LeakPruning::LeakPruning(const ClassRegistry &registry, LeakPruningConfig config,
                         Telemetry &telemetry)
    : registry_(registry), telemetry_(telemetry), config_(config),
      machine_(config),
      edge_table_(config.edgeTableSlots)
{}

LeakPruning::~LeakPruning() = default;

std::string
LeakPruning::edgeTypeName(EdgeType type) const
{
    return registry_.info(type.srcClass).name + " -> " +
           registry_.info(type.tgtClass).name;
}

// --- CollectionPlugin -----------------------------------------------------

TracePolicy
LeakPruning::beginCollection(std::uint64_t epoch)
{
    // The state set at the end of the previous collection governs this
    // one; snapshot it so endCollection's transition can't confuse us.
    active_state_ = pinned_state_.value_or(machine_.state());

    switch (active_state_) {
      case PruningState::Observe: ++stats_.observeCollections; break;
      case PruningState::Select: ++stats_.selectCollections; break;
      case PruningState::Prune: ++stats_.pruneCollections; break;
      default: break;
    }

    // Optional phased-behavior extension: periodically forget old
    // stale-then-used records so finished phases stop protecting
    // their data structures forever.
    if (config_.maxStaleUseDecayPeriod != 0 &&
        active_state_ != PruningState::Inactive &&
        epoch % config_.maxStaleUseDecayPeriod == 0) {
        edge_table_.decayMaxStaleUse();
    }

    // The strict finalizer policy turns finalizers off from the first
    // pruning collection onward (objects reclaimed by a prune might be
    // live, so running their cleanup could change semantics).
    TracePolicy policy;
    policy.runFinalizers =
        config_.finalizerPolicy == FinalizerPolicy::KeepRunning ||
        (!machine_.hasPruned() && active_state_ != PruningState::Prune);

    // Staleness maintenance (and hence reference tagging) starts with
    // OBSERVE; in INACTIVE the program is behaving as expected and we
    // avoid the analysis entirely (paper Section 3.1). Edge
    // classification only matters once SELECT/PRUNE need candidates.
    if (active_state_ == PruningState::Inactive)
        return policy;
    policy.observe = true;
    // The rule never matches a pinned target: pinned objects model
    // memory the VM cannot reclaim (e.g. thread stacks, Mckoi leak).
    // A candidate must be `margin` levels staler than its edge type's
    // most-stale-then-used record, because the counters only
    // approximate the logarithm of staleness (the per-type floor).
    const unsigned margin = config_.staleUseMargin;
    switch (active_state_) {
      case PruningState::Select:
        switch (config_.predictor) {
          case Predictor::Default:
          case Predictor::IndividualRefs:
            // Default candidates wait for the stale closure; without
            // one, afterInUseClosure charges each match's direct
            // target, and the edge is traced.
            policy.rule = EdgeRule{config_.predictor == Predictor::Default
                                       ? EdgeAction::Defer
                                       : EdgeAction::Trace,
                                   margin};
            policy.rule->floors = &edge_table_;
            break;
          case Predictor::MostStale:
            // Selection reads the highest counter marked, never an edge.
            policy.recordMaxStale = true;
            break;
        }
        break;
      case PruningState::Prune:
        if (config_.predictor == Predictor::MostStale) {
            if (most_stale_level_ >= margin)
                policy.rule = EdgeRule{EdgeAction::Poison, most_stale_level_};
        } else if (selected_) {
            // Only the selected type is poisoned, and only past its
            // current maxStaleUse plus the margin; the edge table does
            // not change inside the pause.
            policy.rule = EdgeRule{EdgeAction::Poison,
                                   edge_table_.maxStaleUse(selected_->type) + margin,
                                   selected_->type.srcClass,
                                   selected_->type.tgtClass};
        }
        break;
      default:
        break;
    }
    return policy;
}

void
LeakPruning::runStaleClosure(Tracer &tracer)
{
    // The stale transitive closure (paper Section 4.2, phase 2): mark
    // objects reachable only from candidate references, computing the
    // bytes of each candidate's data structure and charging them to
    // its edge entry. Candidates run grouped by edge type, in
    // ascending (source class, target class) order, and the first type
    // to reach a shared subgraph is charged its bytes. Within one type
    // the charges land on one entry in any order, so trace order
    // decides nothing. The candidates are the in-use closure's
    // matches, which were deferred.
    const std::span<EdgeMatch> candidates = tracer.matches();
    const auto type_of = [](const EdgeMatch &m) {
        return std::pair(m.srcClass, m.target->classId());
    };
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](const EdgeMatch &a, const EdgeMatch &b) {
                         return type_of(a) < type_of(b);
                     });
    stats_.candidatesQueued += candidates.size();
    // OBSERVE's work on every object and edge the closure reaches,
    // without the rule; what it marks counts in the collection's
    // totals.
    TracePolicy stale;
    stale.observe = true;
    for (const EdgeMatch &c : candidates) {
        const std::uint64_t bytes = tracer.traceSubgraph(c.target, stale);
        if (bytes > 0)
            edge_table_.chargeBytes(EdgeType{c.srcClass, c.target->classId()}, bytes);
        stats_.staleBytesSized += bytes;
    }
}

void
LeakPruning::afterInUseClosure(Tracer &tracer)
{
    if (active_state_ != PruningState::Select)
        return;

    switch (config_.predictor) {
      case Predictor::Default:
        runStaleClosure(tracer);
        selected_ = edge_table_.selectMaxBytesAndReset();
        break;
      case Predictor::IndividualRefs:
        // Each candidate charges only its direct target's size.
        for (const EdgeMatch &m : tracer.matches())
            edge_table_.chargeBytes(EdgeType{m.srcClass, m.target->classId()},
                                    m.target->sizeBytes());
        stats_.candidatesQueued += tracer.matches().size();
        selected_ = edge_table_.selectMaxBytesAndReset();
        break;
      case Predictor::MostStale:
        most_stale_level_ = tracer.maxStaleMarked();
        // Represent "a level was found" via selected_ so the state
        // machine's selection_available input works for all predictors.
        selected_.reset();
        if (most_stale_level_ >= config_.staleUseMargin)
            selected_ = EdgeEntrySnapshot{EdgeType{}, most_stale_level_, 1};
        break;
    }

    if (config_.reportPruning && selected_ &&
        config_.predictor != Predictor::MostStale) {
        inform("leak pruning selected ", edgeTypeName(selected_->type), " (",
               selected_->bytesUsed, " stale bytes, maxStaleUse ",
               selected_->maxStaleUse, ")");
    }
}

void
LeakPruning::endCollection(const CollectionOutcome &outcome)
{
    // Only the tracer's Poison action raises the outcome's count, so
    // the audit record, stats().refsPoisoned and the collector's total
    // are one number.
    last_gc_state_ = active_state_;
    last_gc_poisoned_ = outcome.refsPoisoned;
    stats_.refsPoisoned += last_gc_poisoned_;

    if (active_state_ == PruningState::Prune) {
        if (last_gc_poisoned_ > 0) {
            // The decision's one record. An untyped (MostStale) prune
            // keeps EdgeType{}'s invalid class ids.
            EdgeType type;
            PruneAuditRecord rec;
            rec.epoch = outcome.epoch;
            rec.refsPoisoned = last_gc_poisoned_;
            if (config_.predictor == Predictor::MostStale) {
                rec.typeName = "<staleness level " +
                               std::to_string(most_stale_level_) + ">";
                rec.staleLevel = most_stale_level_;
            } else if (selected_) {
                type = selected_->type;
                rec.hasType = true;
                rec.typeName = edgeTypeName(type);
                rec.staleLevel = selected_->maxStaleUse;
                rec.bytesReclaimed = selected_->bytesUsed;
            }
            rec.srcClass = type.srcClass;
            rec.tgtClass = type.tgtClass;
            if (config_.reportPruning)
                inform("leak pruning pruned ", rec.refsPoisoned,
                       " reference(s) of type ", rec.typeName);
            telemetry_.emitInstant(TracePhase::PruneDecision,
                                   static_cast<std::uint32_t>(rec.refsPoisoned),
                                   rec.bytesReclaimed, /*gc_track=*/true);
            telemetry_.audit().recordPrune(std::move(rec));
        }
        // This prune is spent; the next SELECT collection re-selects.
        selected_.reset();
    }

    if (pinned_state_) {
        // Evaluation mode: never prune, never advance; a pinned SELECT
        // re-selects every collection.
        selected_.reset();
        return;
    }
    machine_.advance(outcome.fullness(), selected_.has_value());
}

void
LeakPruning::pinStateForEvaluation(std::optional<PruningState> state)
{
    LP_ASSERT(!state || *state != PruningState::Prune,
              "pinning PRUNE would poison non-leaking programs");
    pinned_state_ = state;
}

// --- read-barrier interface -------------------------------------------------

void
LeakPruning::onReferenceUsed(class_id_t src, class_id_t tgt,
                             unsigned stale_counter)
{
    if (!observing())
        return;
    edge_table_.recordUse(EdgeType{src, tgt}, stale_counter);
}

// --- runtime interface --------------------------------------------------------

bool
LeakPruning::memoryExhausted(std::size_t requested_bytes, std::uint64_t epoch,
                             unsigned rounds_so_far)
{
    {
        std::lock_guard<std::mutex> lock(oom_mutex_);
        if (!averted_oom_) {
            averted_oom_ =
                std::make_shared<OutOfMemoryError>(requested_bytes, epoch);
            if (config_.reportPruning)
                warn("program ran out of memory (", requested_bytes,
                     " bytes requested); leak pruning engaged");
        }
    }
    machine_.noteMemoryExhausted();

    // Always allow the OBSERVE -> SELECT -> PRUNE pipeline to fill.
    if (rounds_so_far < 3)
        return true;
    // A selection is pending: the next collection will prune.
    if (selected_.has_value())
        return true;
    if (config_.predictor == Predictor::MostStale &&
        machine_.state() == PruningState::Prune)
        return true;
    // The last prune poisoned something; its space is now available
    // and, if we are still nearly full, a fresh SELECT may find more.
    if (last_gc_state_ == PruningState::Prune && last_gc_poisoned_ > 0)
        return true;
    // A SELECT collection has not run yet in the current state.
    if (machine_.state() == PruningState::Select &&
        last_gc_state_ != PruningState::Select)
        return true;
    return false;
}

std::shared_ptr<const OutOfMemoryError>
LeakPruning::avertedOutOfMemory() const
{
    std::lock_guard<std::mutex> lock(oom_mutex_);
    return averted_oom_;
}

} // namespace lp

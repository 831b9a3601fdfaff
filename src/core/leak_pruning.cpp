#include "core/leak_pruning.h"

#include <algorithm>
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

void
LeakPruning::beginCollection(std::uint64_t epoch)
{
    epoch_ = epoch;
    // The state set at the end of the previous collection governs this
    // one; snapshot it so endCollection's transition can't confuse us.
    active_state_ = pinned_state_.value_or(machine_.state());
    candidates_.clear();
    max_stale_seen_ = 0;
    poisoned_this_gc_ = 0;

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
}

TracePolicy
LeakPruning::tracePolicy() const
{
    // Staleness maintenance (and hence reference tagging) starts with
    // OBSERVE; in INACTIVE the program is behaving as expected and we
    // avoid the analysis entirely (paper Section 3.1). Edge
    // classification only matters once SELECT/PRUNE need candidates.
    TracePolicy policy;
    if (active_state_ == PruningState::Inactive)
        return policy;
    policy.tagReferences = true;
    policy.trackStaleness = true;
    policy.epoch = epoch_;
    const bool most_stale = config_.predictor == Predictor::MostStale;
    // The reject rule is classifyEdge's own early Trace answers, taken
    // from the header before any call: pinned targets never qualify,
    // nor targets below the staleness every candidate or poisoned edge
    // needs.
    policy.rejectPinned = true;
    switch (active_state_) {
      case PruningState::Select:
        // Most-stale selection reads objectMarked(), never an edge.
        policy.classifyEdges = !most_stale;
        policy.notifyMarked = most_stale;
        policy.minStale = config_.staleUseMargin;
        break;
      case PruningState::Prune:
        if (most_stale) {
            policy.classifyEdges = true;
            policy.minStale = most_stale_level_;
        } else if (selected_) {
            // Only the selected type is poisoned, and only past its
            // current maxStaleUse plus the margin (isCandidate); the
            // edge table does not change inside the pause.
            policy.classifyEdges = true;
            policy.srcClass = selected_->type.srcClass;
            policy.tgtClass = selected_->type.tgtClass;
            policy.minStale = edge_table_.maxStaleUse(selected_->type) +
                              config_.staleUseMargin;
        }
        break;
      default:
        break;
    }
    return policy;
}

void
LeakPruning::objectMarked(Object *obj)
{
    // Only requested (via TracePolicy::notifyMarked) by the Most-stale
    // predictor's SELECT state: track the highest staleness level.
    max_stale_seen_ = std::max(max_stale_seen_, obj->staleCounter());
}

bool
LeakPruning::isCandidate(EdgeType type, Object *tgt) const
{
    // Conservatively require the target to be `margin` levels staler
    // than the edge type's most-stale-then-used record, because the
    // counters only approximate the logarithm of staleness. The
    // counter is read as it stood when the collection began, so the
    // answer does not depend on whether the target was visited yet.
    const unsigned stale = tgt->staleCounterAtStart(epoch_);
    if (stale < config_.staleUseMargin)
        return false;
    return stale >= edge_table_.maxStaleUse(type) + config_.staleUseMargin;
}

EdgeAction
LeakPruning::classifyEdge(Object *src, const ClassInfo &src_cls, ref_t *slot,
                          Object *tgt)
{
    (void)src;
    const EdgeType type{src_cls.id, tgt->classId()};

    switch (active_state_) {
      case PruningState::Inactive:
      case PruningState::Observe:
        return EdgeAction::Trace;

      case PruningState::Select:
        switch (config_.predictor) {
          case Predictor::Default:
            // Pinned targets model memory the VM cannot reclaim (e.g.
            // thread stacks, Mckoi leak): never a candidate.
            if (!tgt->pinned() && isCandidate(type, tgt)) {
                candidates_.push_back(Candidate{slot, type, tgt});
                ++stats_.candidatesQueued;
                return EdgeAction::Defer;
            }
            return EdgeAction::Trace;
          case Predictor::IndividualRefs:
            // No candidate queue / stale closure: charge only the
            // direct target's size and keep tracing.
            if (!tgt->pinned() && isCandidate(type, tgt)) {
                edge_table_.chargeBytes(type, tgt->sizeBytes());
                ++stats_.candidatesQueued;
            }
            return EdgeAction::Trace;
          case Predictor::MostStale:
            return EdgeAction::Trace; // selection uses objectMarked()
        }
        return EdgeAction::Trace;

      case PruningState::Prune:
        if (tgt->pinned())
            return EdgeAction::Trace;
        if (config_.predictor == Predictor::MostStale) {
            if (most_stale_level_ >= config_.staleUseMargin &&
                tgt->staleCounterAtStart(epoch_) >= most_stale_level_) {
                ++poisoned_this_gc_;
                return EdgeAction::Poison;
            }
            return EdgeAction::Trace;
        }
        if (selected_ && type == selected_->type && isCandidate(type, tgt)) {
            ++poisoned_this_gc_;
            return EdgeAction::Poison;
        }
        return EdgeAction::Trace;
    }
    return EdgeAction::Trace;
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
    // decides nothing.
    std::stable_sort(candidates_.begin(), candidates_.end(),
                     [](const Candidate &a, const Candidate &b) {
                         return std::pair(a.type.srcClass, a.type.tgtClass) <
                                std::pair(b.type.srcClass, b.type.tgtClass);
                     });
    TracePolicy stale = tracePolicy();
    stale.classifyEdges = false;
    TraceStats closure;
    for (const Candidate &c : candidates_) {
        const std::uint64_t bytes =
            tracer.traceSubgraph(c.target, this, stale, closure);
        if (bytes > 0)
            edge_table_.chargeBytes(c.type, bytes);
        stats_.staleBytesSized += bytes;
    }
    // Stale-closure marking is collection work; fold it into the
    // collection's totals rather than losing it.
    tracer.addClosureStats(closure);
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
        selected_ = edge_table_.selectMaxBytesAndReset();
        break;
      case Predictor::MostStale:
        most_stale_level_ = max_stale_seen_;
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
    last_gc_state_ = active_state_;
    last_gc_poisoned_ = poisoned_this_gc_;
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

bool
LeakPruning::finalizersEnabled() const
{
    // The strict policy turns finalizers off from the first pruning
    // collection onward (objects reclaimed by a prune might be live,
    // so running their cleanup could change semantics).
    return config_.finalizerPolicy == FinalizerPolicy::KeepRunning ||
           (!machine_.hasPruned() && active_state_ != PruningState::Prune);
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

void
LeakPruning::noteMemoryExhausted(std::size_t requested_bytes,
                                 std::uint64_t epoch)
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
}

bool
LeakPruning::shouldKeepCollecting(unsigned rounds_so_far) const
{
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

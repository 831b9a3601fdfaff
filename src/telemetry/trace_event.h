/**
 * @file
 * The binary trace-event format shared by the telemetry buffer and
 * the exporters.
 *
 * Events are fixed-size PODs (32 bytes), so emitting one is a single
 * append with no formatting. Everything human-readable (phase names,
 * track mapping, JSON) happens at export time, off the measured path.
 */

#ifndef LP_TEL_TRACE_EVENT_H
#define LP_TEL_TRACE_EVENT_H

#include <cstdint>

namespace lp {

/** What kind of record one TraceEvent is. */
enum class EventKind : std::uint8_t {
    Span,    //!< duration event: [tsNanos, tsNanos + durNanos)
    Instant, //!< point event at tsNanos
};

/**
 * Instrumented phases and points. The numeric values are part of the
 * buffer's binary format within one process only — exporters translate
 * to names; nothing is persisted in numeric form.
 */
enum class TracePhase : std::uint8_t {
    // GC-track spans (emitted by the collecting thread).
    SafepointWait, //!< stop request -> world actually stopped
    GcPause,       //!< the whole stop-the-world pause
    GcMark,        //!< in-use closure (mark phase)
    GcPlugin,      //!< plugin phase (stale closure + selection)
    GcSweep,       //!< in-pause reclamation (the epoch flip)
    GcVerify,      //!< heap-verifier pass inside the pause
    CacheRetireAll, //!< stop-the-world retire of all thread caches
    GcFinalizerScan, //!< finalizer scan over dead objects

    // GC-track instants.
    PruneDecision, //!< a PRUNE collection poisoned references

    // Mutator-track events.
    CacheRefill,   //!< thread-cache chunk lease (slow path)
    OffloadWrite,  //!< disk-offload: object moved to disk (span)
    OffloadFault,  //!< disk-offload: object faulted back in (span)
    PoisonAccess,  //!< barrier cold path hit a pruned reference

    kCount,
};

/** Printable name of a phase (stable; used by exporters and tests). */
const char *tracePhaseName(TracePhase phase);

/** One binary trace record. */
struct TraceEvent {
    std::uint64_t tsNanos = 0;  //!< steady-clock timestamp (span start)
    std::uint64_t durNanos = 0; //!< span duration; 0 for instants
    std::uint32_t a32 = 0;      //!< small payload (counts, size class)
    EventKind kind = EventKind::Instant;
    TracePhase phase = TracePhase::PruneDecision;
    /**
     * Exporter track routing: events emitted inside the collector's
     * stop-the-world pause belong on the synthetic "GC" track, not the
     * track of whichever mutator happened to be collecting.
     */
    std::uint8_t gcTrack = 0;
    std::uint8_t reserved = 0;
    std::uint64_t a64 = 0;      //!< large payload (bytes, epoch)
};

static_assert(sizeof(TraceEvent) == 32, "keep the event record compact");

} // namespace lp

#endif // LP_TEL_TRACE_EVENT_H

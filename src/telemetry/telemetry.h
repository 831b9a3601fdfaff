/**
 * @file
 * The telemetry engine: one instance per Runtime, owning the capped
 * trace-event buffer and the pruning audit trail.
 *
 * Design (see DESIGN.md "Telemetry & tracing"):
 *
 *  - Emission appends one event to a single buffer under the engine's
 *    mutex, tagged with the calling thread's track. Every emission
 *    site is already off the fast paths: inside the stop-the-world
 *    pause (GC spans, cache retire, prune decisions, offload writes),
 *    on the chunk-refill slow path, or on the barrier cold path just
 *    before it throws or faults in (poison accesses, offload faults).
 *  - The buffer is capped at kMaxDrainedEvents; past the cap the
 *    newest events are dropped and counted, so a long run keeps
 *    bounded memory and a truncated trace says so.
 *  - Export happens off-line (end of run, or any quiescent point):
 *    Chrome trace-event JSON (load in Perfetto / chrome://tracing)
 *    with one track per thread plus a synthetic GC track. The metrics
 *    snapshot is rendered by the Runtime from the collector's own
 *    statistics plus droppedEvents()/threadCount().
 */

#ifndef LP_TEL_TELEMETRY_H
#define LP_TEL_TELEMETRY_H

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "telemetry/audit.h"
#include "telemetry/trace_event.h"
#include "util/timer.h"

namespace lp {

/** One buffered event plus the track (thread) it came from. */
struct DrainedEvent {
    TraceEvent ev;
    std::uint32_t tid = 0; //!< exporter track id; 0 is the GC track
};

class Telemetry
{
  public:
    /** The synthetic GC track's exporter id. */
    static constexpr std::uint32_t kGcTrackId = 0;
    /** Cap on the event buffer (about 10 MB of events). */
    static constexpr std::size_t kMaxDrainedEvents = std::size_t{1} << 18;

    Telemetry() = default;

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    // --- emission (calling thread's track; cold paths only) --------------

    /** Point event at "now". */
    void
    emitInstant(TracePhase phase, std::uint32_t a32 = 0, std::uint64_t a64 = 0,
                bool gc_track = false)
    {
        TraceEvent ev;
        ev.tsNanos = nowNanos();
        ev.kind = EventKind::Instant;
        ev.phase = phase;
        ev.gcTrack = gc_track ? 1 : 0;
        ev.a32 = a32;
        ev.a64 = a64;
        append(ev);
    }

    /** Duration event over [start_nanos, end_nanos). */
    void
    emitSpan(TracePhase phase, std::uint64_t start_nanos,
             std::uint64_t end_nanos, std::uint32_t a32 = 0,
             std::uint64_t a64 = 0, bool gc_track = false)
    {
        TraceEvent ev;
        ev.tsNanos = start_nanos;
        ev.durNanos = end_nanos > start_nanos ? end_nanos - start_nanos : 0;
        ev.kind = EventKind::Span;
        ev.phase = phase;
        ev.gcTrack = gc_track ? 1 : 0;
        ev.a32 = a32;
        ev.a64 = a64;
        append(ev);
    }

    /** Name the calling thread's track in exported traces. */
    void setThreadName(const std::string &name);

    // --- reading -----------------------------------------------------------

    /** Snapshot of the buffer, in emission order per track. */
    std::vector<DrainedEvent> events() const;

    /** Events refused because the buffer held kMaxDrainedEvents. */
    std::uint64_t droppedEvents() const;

    /** Threads that have emitted at least one event or named a track. */
    std::size_t threadCount() const;

    // --- audit trail -------------------------------------------------------

    PruneAuditTrail &audit() { return audit_; }
    const PruneAuditTrail &audit() const { return audit_; }

    // --- export ------------------------------------------------------------

    /**
     * Write the buffer as Chrome trace-event JSON, one track per
     * emitting thread plus the GC track, with droppedEvents() in its
     * "otherData". Copies the buffer under the lock and writes the
     * copy outside it.
     */
    void writeChromeTrace(std::ostream &os) const;

  private:
    /** One emitting thread's exporter track. */
    struct Track {
        std::uint32_t tid;
        std::string name;
    };

    void append(const TraceEvent &ev);
    /** The calling thread's track, created on first use. */
    Track &myTrackLocked();

    /**
     * Guards tracks_, next_tid_, drained_ and dropped_. A leaf lock:
     * nothing under it polls a safepoint, enters a blocked region or
     * touches the managed heap, so a thread holding it always lets go
     * without waiting for a pause, and emitting from inside the pause
     * cannot deadlock against a mutator that holds it.
     */
    mutable std::mutex mutex_;
    std::unordered_map<std::uint64_t, Track> tracks_; //!< by thread id
    std::uint32_t next_tid_ = 1; //!< 0 is reserved for the GC track
    std::vector<DrainedEvent> drained_;
    std::uint64_t dropped_ = 0; //!< events refused at the cap
    PruneAuditTrail audit_;
};

/**
 * RAII span: records its construction time and emits one complete
 * span event at destruction. A null engine (a bare Heap has none)
 * makes it a no-op.
 */
class TelemetrySpan
{
  public:
    TelemetrySpan(Telemetry *telemetry, TracePhase phase, bool gc_track = false)
        : telemetry_(telemetry), phase_(phase), gc_track_(gc_track),
          start_(telemetry ? nowNanos() : 0)
    {}

    ~TelemetrySpan()
    {
        if (telemetry_)
            telemetry_->emitSpan(phase_, start_, nowNanos(), a32_, a64_,
                                 gc_track_);
    }

    TelemetrySpan(const TelemetrySpan &) = delete;
    TelemetrySpan &operator=(const TelemetrySpan &) = delete;

    /** Attach payload reported with the span's end event. */
    void
    setArgs(std::uint32_t a32, std::uint64_t a64 = 0)
    {
        a32_ = a32;
        a64_ = a64;
    }

  private:
    Telemetry *telemetry_;
    TracePhase phase_;
    bool gc_track_;
    std::uint64_t start_;
    std::uint32_t a32_ = 0;
    std::uint64_t a64_ = 0;
};

/**
 * Instant-emission helper that tolerates a null engine. Usage:
 * telInstant(telemetry_, TracePhase::CacheRefill, ...).
 */
inline void
telInstant(Telemetry *telemetry, TracePhase phase, std::uint32_t a32 = 0,
           std::uint64_t a64 = 0, bool gc_track = false)
{
    if (telemetry)
        telemetry->emitInstant(phase, a32, a64, gc_track);
}

} // namespace lp

#endif // LP_TEL_TELEMETRY_H

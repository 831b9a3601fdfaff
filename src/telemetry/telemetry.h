/**
 * @file
 * The telemetry engine: one instance per Runtime, owning the
 * per-thread trace rings, the drained event buffer, and the pruning
 * audit trail.
 *
 * Design (see DESIGN.md "Telemetry & tracing"):
 *
 *  - Emission is per-thread and wait-free. Each thread that emits gets
 *    a private SPSC TraceRing (found through a TLS pointer keyed on a
 *    process-unique engine id, the same scheme as the allocation
 *    caches), so the hot path is a handful of stores. Overflow drops
 *    the event and counts the drop — telemetry may never block,
 *    allocate, or take a lock on an instrumented path.
 *  - Draining is epoch-based at stop-the-world: the collector's pause
 *    calls drainAll() while every producer is parked or blocked, so
 *    the central buffer absorbs each ring's events with plain SPSC
 *    hand-off and exact ordering per thread. The buffer is capped at
 *    kMaxDrainedEvents; past the cap events are dropped and counted
 *    like a full ring's, so a long run keeps bounded memory.
 *  - Export happens off-line (end of run, or any quiescent point):
 *    Chrome trace-event JSON (load in Perfetto / chrome://tracing)
 *    with one track per thread plus a synthetic GC track. The metrics
 *    snapshot is rendered by the Runtime from the collector's own
 *    statistics plus droppedEvents()/threadCount().
 *
 * The whole layer compiles away under -DLP_TELEMETRY=OFF: the classes
 * still build (so the code cannot rot), but instrumentation sites are
 * compiled out via LP_TELEMETRY_ENABLED and the Runtime never
 * instantiates an engine.
 */

#ifndef LP_TELEMETRY_TELEMETRY_H
#define LP_TELEMETRY_TELEMETRY_H

// CMake's LP_TELEMETRY option sets this to 0 to compile every
// instrumentation site down to nothing. Default: enabled.
#ifndef LP_TELEMETRY_ENABLED
#define LP_TELEMETRY_ENABLED 1
#endif

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "telemetry/audit.h"
#include "telemetry/trace_event.h"
#include "telemetry/trace_ring.h"
#include "util/timer.h"

namespace lp {

/** One drained event plus the track (thread) it came from. */
struct DrainedEvent {
    TraceEvent ev;
    std::uint32_t tid = 0; //!< exporter track id; 0 is the GC track
};

class Telemetry
{
  public:
    /** The synthetic GC track's exporter id. */
    static constexpr std::uint32_t kGcTrackId = 0;
    /** Per-thread ring slots (a power of two). */
    static constexpr std::size_t kRingCapacity = 16384;
    /** Cap on the central drained buffer (about 10 MB of events). */
    static constexpr std::size_t kMaxDrainedEvents = std::size_t{1} << 18;

    Telemetry();
    ~Telemetry();

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    // --- emission (calling thread's ring; cold paths only) ---------------

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
        myRing()->emit(ev);
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
        myRing()->emit(ev);
    }

    /** Name the calling thread's track in exported traces. */
    void setThreadName(const std::string &name);

    // --- drain (stop-the-world or otherwise quiescent) --------------------

    /**
     * Move every ring's published events into the central buffer.
     * Producers must be parked/blocked or be the calling thread; the
     * collector's world-stopped hook is the canonical call site. Once
     * the buffer holds kMaxDrainedEvents, further events are dropped
     * (newest first, as a full ring does) and counted.
     */
    void drainAll();

    /** The drained central buffer (call drainAll() first). */
    const std::vector<DrainedEvent> &events() const { return drained_; }

    /** Total events lost to full rings or the drained-buffer cap. */
    std::uint64_t droppedEvents() const;

    /** Threads that have emitted at least one event. */
    std::size_t threadCount() const;

    // --- audit trail -------------------------------------------------------

    PruneAuditTrail &audit() { return audit_; }
    const PruneAuditTrail &audit() const { return audit_; }

    // --- export ------------------------------------------------------------

    /**
     * Write the drained buffer as Chrome trace-event JSON, one track
     * per emitting thread plus the GC track. Call drainAll() first.
     */
    void writeChromeTrace(std::ostream &os);

  private:
    struct ThreadRing {
        explicit ThreadRing(std::size_t capacity, std::uint32_t tid_)
            : ring(capacity), tid(tid_)
        {}
        TraceRing ring;
        std::uint32_t tid;
        std::string name;
    };

    TraceRing *myRing();

    //! Process-unique engine id the TLS ring pointer keys on.
    const std::uint64_t engine_id_;
    mutable std::mutex mutex_; //!< guards rings_, drained_, drain_dropped_
    std::unordered_map<std::uint64_t, std::unique_ptr<ThreadRing>> rings_;
    std::uint32_t next_tid_ = 1; //!< 0 is reserved for the GC track
    std::vector<DrainedEvent> drained_;
    std::uint64_t drain_dropped_ = 0; //!< events refused at the cap
    PruneAuditTrail audit_;
};

/**
 * RAII span: records its construction time and emits one complete
 * span event at destruction. A null engine (telemetry compiled out or
 * not instantiated) makes it a no-op. The LP_TELEMETRY_ENABLED=0
 * variant compiles to an empty object so instrumented functions carry
 * zero code when the layer is off.
 */
class TelemetrySpan
{
  public:
#if LP_TELEMETRY_ENABLED
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
#else
    TelemetrySpan(Telemetry *, TracePhase, bool = false) {}
    void setArgs(std::uint32_t, std::uint64_t = 0) {}
#endif

  public:
    TelemetrySpan(const TelemetrySpan &) = delete;
    TelemetrySpan &operator=(const TelemetrySpan &) = delete;
};

/**
 * Instant-emission helper that vanishes when telemetry is compiled
 * out. Usage: telInstant(telemetry(), TracePhase::PoisonAccess, ...).
 */
inline void
telInstant([[maybe_unused]] Telemetry *telemetry,
           [[maybe_unused]] TracePhase phase,
           [[maybe_unused]] std::uint32_t a32 = 0,
           [[maybe_unused]] std::uint64_t a64 = 0,
           [[maybe_unused]] bool gc_track = false)
{
#if LP_TELEMETRY_ENABLED
    if (telemetry)
        telemetry->emitInstant(phase, a32, a64, gc_track);
#endif
}

} // namespace lp

#endif // LP_TELEMETRY_TELEMETRY_H

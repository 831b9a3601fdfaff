#include "telemetry/telemetry.h"

#include <new>
#include <thread>

#include "telemetry/chrome_trace.h"

namespace lp {

namespace {

/** Stable id for the calling thread (same scheme as ThreadRegistry). */
std::uint64_t
selfId()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

} // namespace

Telemetry::Track &
Telemetry::myTrackLocked()
{
    const auto [it, fresh] = tracks_.try_emplace(selfId());
    if (fresh) {
        it->second.tid = next_tid_;
        it->second.name = "mutator-" + std::to_string(next_tid_);
        ++next_tid_;
    }
    return it->second;
}

void
Telemetry::append(const TraceEvent &ev)
{
    std::lock_guard<std::mutex> lock(mutex_);
    try {
        const std::uint32_t tid = myTrackLocked().tid;
        if (drained_.size() >= kMaxDrainedEvents) {
            ++dropped_;
            return;
        }
        drained_.push_back(DrainedEvent{ev, tid});
    } catch (const std::bad_alloc &) {
        // TelemetrySpan emits from its destructor, so nothing may
        // escape: an event that cannot be stored is dropped and
        // counted like one past the cap.
        ++dropped_;
    }
}

void
Telemetry::setThreadName(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    myTrackLocked().name = name;
}

std::vector<DrainedEvent>
Telemetry::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return drained_;
}

std::uint64_t
Telemetry::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

std::size_t
Telemetry::threadCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tracks_.size();
}

void
Telemetry::writeChromeTrace(std::ostream &os) const
{
    std::vector<DrainedEvent> events;
    std::vector<std::pair<std::uint32_t, std::string>> names;
    std::uint64_t dropped = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        events = drained_;
        dropped = dropped_;
        names.reserve(tracks_.size());
        for (const auto &[id, track] : tracks_)
            names.emplace_back(track.tid, track.name);
    }
    lp::writeChromeTrace(os, events, names, dropped);
}

} // namespace lp

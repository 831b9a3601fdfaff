#include "telemetry/telemetry.h"

#include <algorithm>
#include <atomic>
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

// TLS ring pointer, keyed on the engine id (never an address, which a
// later Runtime could reuse). One live engine per thread at a time is
// the common case; a second engine just repopulates the slot.
thread_local std::uint64_t tls_engine_id = 0;
thread_local TraceRing *tls_ring = nullptr;

std::atomic<std::uint64_t> next_engine_id{1};

} // namespace

Telemetry::Telemetry()
    : engine_id_(next_engine_id.fetch_add(1, std::memory_order_relaxed))
{}

Telemetry::~Telemetry() = default;

TraceRing *
Telemetry::myRing()
{
    if (tls_engine_id == engine_id_ && tls_ring)
        return tls_ring;
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = rings_[selfId()];
    if (!slot) {
        slot = std::make_unique<ThreadRing>(kRingCapacity, next_tid_);
        slot->name = "mutator-" + std::to_string(next_tid_);
        ++next_tid_;
    }
    tls_engine_id = engine_id_;
    tls_ring = &slot->ring;
    return tls_ring;
}

void
Telemetry::setThreadName(const std::string &name)
{
    myRing(); // ensure the calling thread's ring exists
    std::lock_guard<std::mutex> lock(mutex_);
    rings_[selfId()]->name = name;
}

void
Telemetry::drainAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TraceEvent> batch;
    for (auto &[id, tr] : rings_) {
        batch.clear();
        tr->ring.drainInto(batch);
        const std::size_t kept =
            std::min(batch.size(), kMaxDrainedEvents - drained_.size());
        for (std::size_t i = 0; i < kept; ++i)
            drained_.push_back(DrainedEvent{batch[i], tr->tid});
        drain_dropped_ += batch.size() - kept;
    }
}

std::uint64_t
Telemetry::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = drain_dropped_;
    for (const auto &[id, tr] : rings_)
        total += tr->ring.dropped();
    return total;
}

std::size_t
Telemetry::threadCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rings_.size();
}

void
Telemetry::writeChromeTrace(std::ostream &os)
{
    std::vector<std::pair<std::uint32_t, std::string>> names;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        names.reserve(rings_.size());
        for (const auto &[id, tr] : rings_)
            names.emplace_back(tr->tid, tr->name);
    }
    lp::writeChromeTrace(os, drained_, names);
}

} // namespace lp

#include "threads/safepoint.h"

#include <thread>
#include <utility>

#include "util/logging.h"

namespace lp {

namespace {

/** Stable id for the calling thread. */
std::uint64_t
selfId()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

std::atomic<std::uint64_t> next_registry_id{1};

using Counter = std::atomic<std::uint64_t> BarrierStats::*;
constexpr Counter kBarrierCounters[] = {
    &BarrierStats::reads, &BarrierStats::coldPathHits,
    &BarrierStats::poisonThrows};

/** Add @p from's counts into @p into; the caller holds the registry mutex. */
void
addCounts(BarrierStats &into, const BarrierStats &from)
{
    for (Counter c : kBarrierCounters)
        (into.*c).store((into.*c).load(std::memory_order_relaxed) +
                            (from.*c).load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
}

} // namespace

void
HandleStack::enterBlock(std::size_t block)
{
    if (block == blocks_.size())
        blocks_.push_back(std::make_unique_for_overwrite<ref_t[]>(kBlockSlots));
    mark.top = blocks_[block].get();
    mark.limit = mark.top + kBlockSlots;
    mark.block = block;
}

void
HandleStack::forEachSlot(FunctionRef<void(ref_t *)> fn)
{
    for (std::size_t b = 0; b <= mark.block; ++b) {
        ref_t *end = b == mark.block ? mark.top : blocks_[b].get() + kBlockSlots;
        for (ref_t *slot = blocks_[b].get(); slot != end; ++slot)
            fn(slot);
    }
}

ThreadRegistry::ThreadRegistry(Heap &heap)
    : heap_(heap),
      registry_id_(next_registry_id.fetch_add(1, std::memory_order_relaxed))
{}

void
ThreadRegistry::registerMutator()
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = threads_.find(selfId());
    if (it != threads_.end()) {
        // Re-entrant registration (e.g. an explicit MutatorScope on the
        // thread that constructed the Runtime). The thread is already a
        // visible mutator, so it must NOT wait out a pending pause here:
        // the pausing collector is waiting for *this* entry to reach a
        // safepoint, and waiting for !stop_requested_ would deadlock.
        // Just bump the depth and keep running to the next poll.
        ++it->second->depth;
        tls_registry_id_ = registry_id_;
        tls_state_ = it->second.get();
        return;
    }
    // A newly arriving mutator must not start running mid-pause.
    cv_.wait(lock, [&] { return !stop_requested_.load(std::memory_order_relaxed); });
    auto &entry = threads_[selfId()];
    entry = std::make_unique<ThreadState>(heap_);
    tls_registry_id_ = registry_id_;
    tls_state_ = entry.get();
}

void
ThreadRegistry::unregisterMutator()
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = threads_.find(selfId());
    if (it == threads_.end())
        return;
    ThreadState &self = *it->second;
    if (--self.depth > 0)
        return; // an outer registration is still live
    // This thread is running, so no pause can start before the entry
    // is gone: its leases go back to the heap now rather than at the
    // next pause, and its counts outlive the entry.
    LP_ASSERT(self.state == State::Running,
              "a mutator must leave its blocked region before unregistering");
    LP_ASSERT(!self.handles.mark.scope,
              "a mutator must close its handle scopes before unregistering");
    exited_trigger_bytes_ += self.cache.retireAll();
    addCounts(exited_barrier_, self.barrier);
    threads_.erase(it);
    if (tls_registry_id_ == registry_id_) {
        tls_registry_id_ = 0;
        tls_state_ = nullptr;
    }
    cv_.notify_all(); // a stopping collector may be waiting on us
}

ThreadRegistry::ThreadState *
ThreadRegistry::currentSlow()
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = threads_.find(selfId());
    if (it == threads_.end())
        return nullptr; // unregistered thread: no slot
    tls_registry_id_ = registry_id_;
    tls_state_ = it->second.get();
    return it->second.get();
}

BarrierStats &
ThreadRegistry::myBarrierStatsSlow()
{
    // An unregistered reader would otherwise take the mutex on every
    // load; reads, like allocation, are for registered mutators only.
    ThreadState *state = current();
    LP_ASSERT(state, "reference read from a thread not registered as a mutator");
    return state->barrier;
}

void
ThreadRegistry::forEachRoot(FunctionRef<void(ref_t *)> fn)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (auto &[id, state] : threads_) {
        fn(&state->lastAllocation);
        state->handles.forEachSlot(fn);
    }
}

void
ThreadRegistry::park()
{
    ThreadState *self = current();
    if (!self)
        return; // unregistered threads never park
    std::unique_lock<std::mutex> lock(mutex_);
    self->state = State::Parked;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !stop_requested_.load(std::memory_order_relaxed); });
    self->state = State::Running;
}

void
ThreadRegistry::enterBlocked()
{
    ThreadState *self = current();
    if (!self)
        return;
    std::unique_lock<std::mutex> lock(mutex_);
    self->state = State::Blocked;
    cv_.notify_all();
}

void
ThreadRegistry::exitBlocked()
{
    ThreadState *self = current();
    if (!self)
        return;
    std::unique_lock<std::mutex> lock(mutex_);
    // If a pause is in progress we must not resume mutating under it.
    cv_.wait(lock, [&] { return !stop_requested_.load(std::memory_order_relaxed); });
    self->state = State::Running;
}

void
ThreadRegistry::stopTheWorld()
{
    std::unique_lock<std::mutex> lock(mutex_);
    LP_ASSERT(!stop_requested_.load(std::memory_order_relaxed),
              "nested stop-the-world");
    stop_requested_.store(true, std::memory_order_release);
    const std::uint64_t self = selfId();
    cv_.wait(lock, [&] {
        for (const auto &[id, state] : threads_) {
            if (id != self && state->state == State::Running)
                return false;
        }
        return true;
    });
    world_stopped_.store(true, std::memory_order_release);
}

void
ThreadRegistry::resumeTheWorld()
{
    std::unique_lock<std::mutex> lock(mutex_);
    world_stopped_.store(false, std::memory_order_release);
    stop_requested_.store(false, std::memory_order_release);
    cv_.notify_all();
}

std::uint64_t
ThreadRegistry::retireAllocCaches()
{
    std::unique_lock<std::mutex> lock(mutex_);
    std::uint64_t drained = std::exchange(exited_trigger_bytes_, 0);
    for (auto &[id, state] : threads_)
        drained += state->cache.retireAll();
    return drained;
}

BarrierStats
ThreadRegistry::barrierTotals() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto total = [&](Counter c) {
        std::uint64_t n = (exited_barrier_.*c).load(std::memory_order_relaxed);
        for (const auto &[id, state] : threads_)
            n += (state->barrier.*c).load(std::memory_order_relaxed);
        return n;
    };
    return BarrierStats{{total(&BarrierStats::reads)},
                        {total(&BarrierStats::coldPathHits)},
                        {total(&BarrierStats::poisonThrows)}};
}

std::size_t
ThreadRegistry::mutatorCount() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return threads_.size();
}

} // namespace lp

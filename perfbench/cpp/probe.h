/**
 * @file
 * The benchmark's boundary into the runtime: every call a workload
 * makes into the `vm` and `collections` layers goes through a probe.
 *
 * Two probes share one interface so a workload is written once as a
 * template and instantiated twice:
 *
 *  - DirectProbe forwards each call inline and only times whole
 *    requests. The end-to-end metrics are measured with it.
 *  - TracedProbe counts every call, times a sampled subset (a
 *    steady_clock read costs several times a barrier-checked
 *    readRef, so timing each of tens of millions of reads would swamp
 *    the run), records request-rooted spans in memory, and attributes
 *    each stop-the-world pause a request waited through from GcStats.
 *
 * The difference between the two runs is the tracing overhead the
 * benchmark reports.
 */

#ifndef LPBENCH_PROBE_H
#define LPBENCH_PROBE_H

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "collections/managed_hash_map.h"
#include "collections/managed_list.h"
#include "vm/runtime.h"

namespace lpbench {

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * splitmix64. The benchmark owns its generator so that its inputs
 * depend on --seed alone, never on the runtime's utilities.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform in [lo, hi]. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

  private:
    std::uint64_t state_;
};

/**
 * A uniform sample of at most `cap` values from a stream of unknown
 * length (Algorithm R), so memory stays bounded however many requests
 * a fast workload completes. seen() is the exact stream length.
 */
class Reservoir
{
  public:
    Reservoir(std::size_t cap, std::uint64_t seed) : cap_(cap), rng_(seed) {}

    void
    add(std::uint64_t v)
    {
        ++seen_;
        if (samples_.size() < cap_) {
            samples_.push_back(v);
            return;
        }
        const std::uint64_t j = rng_.below(seen_);
        if (j < cap_)
            samples_[j] = v;
    }

    /** Fold in another thread's sample (threads run symmetric loads). */
    void
    merge(const Reservoir &other)
    {
        seen_ += other.seen_;
        samples_.insert(samples_.end(), other.samples_.begin(),
                        other.samples_.end());
    }

    std::uint64_t seen() const { return seen_; }
    const std::vector<std::uint64_t> &samples() const { return samples_; }

  private:
    std::size_t cap_;
    Rng rng_;
    std::uint64_t seen_ = 0;
    std::vector<std::uint64_t> samples_;
};

/** Request latencies kept per mutator thread (4 MB each at most). */
constexpr std::size_t kLatencyReservoir = std::size_t{1} << 19;

/** What a span covers. Request spans are roots; the rest are children. */
enum class SpanKind : std::uint8_t {
    Request,
    Read,     //!< Runtime::readRef
    Write,    //!< Runtime::writeRef
    Alloc,    //!< Runtime::allocate / allocateByteArray
    MapPut,   //!< ManagedHashMap::put (includes rehash on growth)
    MapScan,  //!< ManagedHashMap::forEach
    ListPush, //!< ManagedList::pushFront
    GcPause,  //!< a stop-the-world pause the request waited through
    kCount,
};

constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kCount);

const char *spanKindName(SpanKind kind);

/**
 * Time one call in this many (a power of two). Reads are the hottest
 * call by far; calls that do real work are timed every time.
 */
constexpr std::array<std::uint32_t, kSpanKinds> kSamplePeriod = {
    1, 64, 8, 8, 1, 1, 1, 1};

struct Span {
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
    std::uint64_t requestId = 0; //!< shared by a request and its children
    SpanKind kind = SpanKind::Request;
};

/** Per-kind tallies: calls are exact, timing covers the sampled calls. */
struct OpTally {
    std::uint64_t calls = 0;
    std::uint64_t timed = 0;
    std::uint64_t timedNs = 0;
};

/** Untraced probe: inline forwarding plus whole-request timing. */
class DirectProbe
{
  public:
    DirectProbe(std::uint64_t seed, std::uint32_t /*thread*/)
        : latency_(kLatencyReservoir, seed)
    {}

    void attach(lp::Runtime &rt) { rt_ = &rt; }

    void beginRequest() { start_ = nowNs(); }
    void endRequest() { latency_.add(nowNs() - start_); }

    lp::Object *read(lp::Object *o, std::size_t s) { return rt_->readRef(o, s); }
    void write(lp::Object *o, std::size_t s, lp::Object *v) { rt_->writeRef(o, s, v); }
    lp::Object *alloc(lp::class_id_t c) { return rt_->allocate(c); }

    lp::Object *
    allocBytes(lp::class_id_t c, std::size_t n)
    {
        return rt_->allocateByteArray(c, n);
    }

    void
    mapPut(lp::ManagedHashMap &m, lp::Object *map, std::uint64_t k, lp::Object *v)
    {
        m.put(map, k, v);
    }

    template <class F>
    void
    mapScan(lp::ManagedHashMap &m, lp::Object *map, F &&fn)
    {
        m.forEach(map, fn);
    }

    void
    listPush(lp::ManagedList &l, lp::Object *list, lp::Object *v)
    {
        l.pushFront(list, v);
    }

    Reservoir &latency() { return latency_; }

  private:
    lp::Runtime *rt_ = nullptr;
    Reservoir latency_;
    std::uint64_t start_ = 0;
};

/** Spans one traced thread keeps in memory (32 B each). */
constexpr std::size_t kSpanCap = std::size_t{1} << 18;

/** Traced probe: counts, sampled child spans, pause attribution. */
class TracedProbe
{
  public:
    TracedProbe(std::uint64_t seed, std::uint32_t thread)
        : latency_(kLatencyReservoir, seed), allocNs_(1u << 16, seed + 1),
          thread_(thread)
    {
        spans_.reserve(kSpanCap);
    }

    void attach(lp::Runtime &rt) { rt_ = &rt; }

    void
    beginRequest()
    {
        request_ = (static_cast<std::uint64_t>(thread_) << 40) | ++seq_;
        // Safe without a lock: stats only change inside a pause, and a
        // pause cannot start until this running mutator parks.
        pausesSeen_ = rt_->gcStats().pauseSamplesNanos.size();
        start_ = nowNs();
    }

    void
    endRequest()
    {
        const std::uint64_t end = nowNs();
        latency_.add(end - start_);
        OpTally &t = tally_[0];
        ++t.calls;
        ++t.timed;
        t.timedNs += end - start_;
        record(SpanKind::Request, start_, end - start_);
        const std::vector<std::uint64_t> &pauses =
            rt_->gcStats().pauseSamplesNanos;
        for (std::size_t i = pausesSeen_; i < pauses.size(); ++i) {
            OpTally &p = tally_[static_cast<std::size_t>(SpanKind::GcPause)];
            ++p.calls;
            ++p.timed;
            p.timedNs += pauses[i];
            record(SpanKind::GcPause, start_, pauses[i]);
        }
    }

    lp::Object *
    read(lp::Object *o, std::size_t s)
    {
        Timed t(*this, SpanKind::Read);
        return rt_->readRef(o, s);
    }

    void
    write(lp::Object *o, std::size_t s, lp::Object *v)
    {
        Timed t(*this, SpanKind::Write);
        rt_->writeRef(o, s, v);
    }

    lp::Object *
    alloc(lp::class_id_t c)
    {
        Timed t(*this, SpanKind::Alloc);
        return rt_->allocate(c);
    }

    lp::Object *
    allocBytes(lp::class_id_t c, std::size_t n)
    {
        Timed t(*this, SpanKind::Alloc);
        return rt_->allocateByteArray(c, n);
    }

    void
    mapPut(lp::ManagedHashMap &m, lp::Object *map, std::uint64_t k, lp::Object *v)
    {
        Timed t(*this, SpanKind::MapPut);
        m.put(map, k, v);
    }

    template <class F>
    void
    mapScan(lp::ManagedHashMap &m, lp::Object *map, F &&fn)
    {
        Timed t(*this, SpanKind::MapScan);
        m.forEach(map, fn);
    }

    void
    listPush(lp::ManagedList &l, lp::Object *list, lp::Object *v)
    {
        Timed t(*this, SpanKind::ListPush);
        l.pushFront(list, v);
    }

    Reservoir &latency() { return latency_; }
    const Reservoir &allocNs() const { return allocNs_; }
    const std::array<OpTally, kSpanKinds> &tallies() const { return tally_; }
    const std::vector<Span> &spans() const { return spans_; }
    std::uint64_t droppedSpans() const { return dropped_; }

  private:
    /** Counts the call; times it when its sequence number is sampled. */
    class Timed
    {
      public:
        Timed(TracedProbe &p, SpanKind kind)
            : p_(p), kind_(kind),
              start_(p.tally_[static_cast<std::size_t>(kind)].calls++ &
                             (kSamplePeriod[static_cast<std::size_t>(kind)] - 1)
                         ? 0
                         : nowNs())
        {}

        ~Timed()
        {
            if (start_ != 0)
                p_.finish(kind_, start_);
        }

        Timed(const Timed &) = delete;
        Timed &operator=(const Timed &) = delete;

      private:
        TracedProbe &p_;
        SpanKind kind_;
        std::uint64_t start_;
    };

    void
    finish(SpanKind kind, std::uint64_t start)
    {
        const std::uint64_t dur = nowNs() - start;
        OpTally &t = tally_[static_cast<std::size_t>(kind)];
        ++t.timed;
        t.timedNs += dur;
        if (kind == SpanKind::Alloc)
            allocNs_.add(dur);
        record(kind, start, dur);
    }

    void
    record(SpanKind kind, std::uint64_t start, std::uint64_t dur)
    {
        if (spans_.size() < kSpanCap)
            spans_.push_back({start, dur, request_, kind});
        else
            ++dropped_;
    }

    lp::Runtime *rt_ = nullptr;
    Reservoir latency_;
    Reservoir allocNs_;
    std::uint32_t thread_;
    std::uint64_t seq_ = 0;
    std::uint64_t request_ = 0;
    std::uint64_t start_ = 0;
    std::size_t pausesSeen_ = 0;
    std::array<OpTally, kSpanKinds> tally_{};
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
};

} // namespace lpbench

#endif // LPBENCH_PROBE_H

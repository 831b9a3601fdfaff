#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <thread>

#include "collections/fields.h"
#include "core/errors.h"
#include "vm/handles.h"

namespace lpbench {

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Request: return "request";
      case SpanKind::Read: return "vm.readRef";
      case SpanKind::Write: return "vm.writeRef";
      case SpanKind::Alloc: return "vm.allocate";
      case SpanKind::MapPut: return "collections.map_put";
      case SpanKind::MapScan: return "collections.map_scan";
      case SpanKind::ListPush: return "collections.list_push";
      case SpanKind::GcPause: return "gc.pause";
      case SpanKind::kCount: break;
    }
    return "?";
}

void
PhaseResult::absorbProbe(TracedProbe &p)
{
    latency.merge(p.latency());
    allocNs.merge(p.allocNs());
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
        tallies[k].calls += p.tallies()[k].calls;
        tallies[k].timed += p.tallies()[k].timed;
        tallies[k].timedNs += p.tallies()[k].timedNs;
    }
    spansKept += p.spans().size();
    spansDropped += p.droppedSpans();

    // Self time of each request whose spans were all kept: its span
    // minus its children, a sampled child standing for kSamplePeriod
    // calls. A thread's requests run one after another, so one
    // request's spans are contiguous and end with the request span
    // (pause spans follow it).
    std::uint64_t id = 0, request = 0, children = 0;
    bool have_request = false;
    const auto close = [&] {
        if (have_request) {
            requestNsInSpans += request;
            selfNsInSpans += request > children ? request - children : 0;
        }
    };
    for (const Span &s : p.spans()) {
        if (s.requestId != id) {
            close();
            id = s.requestId;
            request = children = 0;
            have_request = false;
        }
        if (s.kind == SpanKind::Request) {
            request = s.durNs;
            have_request = true;
        } else {
            children += s.durNs * kSamplePeriod[static_cast<std::size_t>(s.kind)];
        }
    }
    close();
}

namespace {

// Independent generator streams derived from one --seed.
constexpr std::uint64_t kGraphStream = 0x6772617068ull;
constexpr std::uint64_t kRequestStream = 0x72657175657374ull;
constexpr std::uint64_t kLatencyStream = 0x6c6174656e6379ull;
constexpr std::uint64_t kWalkStream = 0x77616c6bull;
constexpr std::uint64_t kEpisodeStream = 0x657069736f6465ull;

/**
 * Slices a phase's timed region is cut into (oom_horizon instead builds
 * a world per episode all through its run). Between two slices, with
 * the workload's mutators stopped and the clock off, a spare copy of
 * its world is built and timed. The host's pace drifts over seconds to
 * minutes (a build took about 0.15 ms or 0.3 ms depending on when it
 * ran), so setup_s, the median of these builds, samples the whole run
 * as req_per_s does rather than its first milliseconds.
 */
constexpr int kSlices = 16;

lp::RuntimeConfig
runtimeConfig(std::size_t heap_bytes,
              lp::BarrierMode mode = lp::BarrierMode::AllTheTime)
{
    lp::RuntimeConfig c;
    c.heapBytes = heap_bytes;
    c.gcThreads = ThreadPlan{}.gcThreads;
    c.barrierMode = mode;
    c.enableLeakPruning = mode == lp::BarrierMode::AllTheTime;
    // The verifier runs once per runtime, outside the timed region.
    c.verifier.enabled = false;
    c.verifier.mode = lp::VerifierMode::LogOnly;
    return c;
}

double
seconds(std::uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

LayerTotals
counters(lp::Runtime &rt)
{
    LayerTotals t;
    const lp::GcStats &gc = rt.gcStats();
    t.collections = gc.collections;
    t.pauseNs = gc.totalPauseNanos;
    t.markNs = gc.totalMarkNanos;
    t.sweepNs = gc.totalSweepNanos;
    t.verifyNs = gc.totalVerifyNanos;
    t.objectsMarked = gc.objectsMarkedTotal;
    t.safepointWaitNs = gc.totalSafepointWaitNanos;
    t.safepointWaitMaxNs = gc.maxSafepointWaitNanos;
    const lp::HeapStats &heap = rt.heap().stats();
    t.allocations = heap.allocations;
    t.bytesAllocated = heap.bytesAllocated;
    t.failedAllocations = heap.failedAllocations;
    t.bytesFreed = heap.bytesFreed;
    const lp::BarrierStats &barrier = rt.barrierStats();
    t.reads = barrier.reads.load();
    t.coldHits = barrier.coldPathHits.load();
    t.poisonThrows = barrier.poisonThrows.load();
    if (const lp::LeakPruning *p = rt.pruning()) {
        t.selectGcs = p->stats().selectCollections;
        t.pruneGcs = p->stats().pruneCollections;
        t.candidatesQueued = p->stats().candidatesQueued;
        t.staleBytesSized = p->stats().staleBytesSized;
        t.refsPoisoned = p->stats().refsPoisoned;
        t.edgeTypes = p->edgeTable().count();
    }
    if (lp::Telemetry *tel = rt.telemetry()) {
        const lp::PruneAuditSummary audit = tel->audit().summary();
        t.auditBytesReclaimed = audit.bytesReclaimed;
        t.auditBytesMispredicted = audit.bytesMispredicted;
    }
    return t;
}

/** Counter values at the start of a timed region. */
struct Snapshot {
    LayerTotals at;
    std::size_t pauses = 0;
};

Snapshot
snapshot(lp::Runtime &rt)
{
    return {counters(rt), rt.gcStats().pauseSamplesNanos.size()};
}

/**
 * Fold what @p rt did since @p since into @p out. Call once the
 * runtime's other mutators have stopped.
 */
void
absorb(lp::Runtime &rt, const Snapshot &since, PhaseResult &out)
{
    const LayerTotals now = counters(rt);
    const LayerTotals &b = since.at;
    LayerTotals &t = out.layers;
    t.collections += now.collections - b.collections;
    t.pauseNs += now.pauseNs - b.pauseNs;
    t.markNs += now.markNs - b.markNs;
    t.sweepNs += now.sweepNs - b.sweepNs;
    t.verifyNs += now.verifyNs - b.verifyNs;
    t.objectsMarked += now.objectsMarked - b.objectsMarked;
    t.safepointWaitNs += now.safepointWaitNs - b.safepointWaitNs;
    t.safepointWaitMaxNs = std::max(t.safepointWaitMaxNs, now.safepointWaitMaxNs);
    t.allocations += now.allocations - b.allocations;
    t.bytesAllocated += now.bytesAllocated - b.bytesAllocated;
    t.failedAllocations += now.failedAllocations - b.failedAllocations;
    t.bytesFreed += now.bytesFreed - b.bytesFreed;
    t.fullnessEndSum += rt.heap().fullness();
    ++t.runtimes;
    t.reads += now.reads - b.reads;
    t.coldHits += now.coldHits - b.coldHits;
    t.poisonThrows += now.poisonThrows - b.poisonThrows;
    t.selectGcs += now.selectGcs - b.selectGcs;
    t.pruneGcs += now.pruneGcs - b.pruneGcs;
    t.candidatesQueued += now.candidatesQueued - b.candidatesQueued;
    t.staleBytesSized += now.staleBytesSized - b.staleBytesSized;
    t.refsPoisoned += now.refsPoisoned - b.refsPoisoned;
    t.edgeTypes = std::max(t.edgeTypes, now.edgeTypes);
    t.auditBytesReclaimed += now.auditBytesReclaimed - b.auditBytesReclaimed;
    t.auditBytesMispredicted +=
        now.auditBytesMispredicted - b.auditBytesMispredicted;
    const std::vector<std::uint64_t> &pauses = rt.gcStats().pauseSamplesNanos;
    out.pauseNs.insert(out.pauseNs.end(),
                       pauses.begin() + static_cast<std::ptrdiff_t>(since.pauses),
                       pauses.end());
}

void
checkHeap(lp::Runtime &rt, PhaseResult &out)
{
    const lp::VerifierReport report = rt.verifyHeap();
    out.checks.push_back({"verifyHeap clean", report.clean(), report.summary()});
}

/** Build a workload's runtime and initial graph once, timed. */
template <class Make>
auto
buildTimed(PhaseResult &out, Make &&make)
{
    const std::uint64_t t0 = nowNs();
    auto world = make();
    out.setupSeconds.push_back(seconds(nowNs() - t0));
    return world;
}

std::uint64_t
deadlineAfter(double secs)
{
    return nowNs() + static_cast<std::uint64_t>(secs * 1e9);
}

/**
 * Run a timed region of @p secs as kSlices calls of @p slice(deadline),
 * which returns false to stop early (an error). Only the slices count
 * in out.wallSeconds. Between two slices, once @p slice has returned
 * and so stopped every mutator it started, one spare world from
 * @p make is built, timed into out.setupSeconds and torn down.
 */
template <class Make, class Slice>
void
runSliced(double secs, PhaseResult &out, Make &&make, Slice &&slice)
{
    for (int i = 0; i < kSlices; ++i) {
        if (i > 0)
            buildTimed(out, make);
        const std::uint64_t t0 = nowNs();
        const bool go_on = slice(deadlineAfter(secs / kSlices));
        out.wallSeconds += seconds(nowNs() - t0);
        if (!go_on)
            break;
    }
}

/** FNV-1a step over one 64-bit value. */
std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/**
 * Runs a helper mutator thread for the lifetime of the object and
 * joins it on destruction, with the owner counted as at a safepoint
 * while it waits (the helper may be collecting).
 */
class HelperThread
{
  public:
    template <class F>
    HelperThread(lp::Runtime &rt, F &&body) : rt_(rt)
    {
        thread_ = std::thread([this, body = std::forward<F>(body)]() mutable {
            lp::MutatorScope scope(rt_.threads());
            body();
        });
    }

    ~HelperThread()
    {
        lp::BlockedScope blocked(rt_.threads());
        thread_.join();
    }

    HelperThread(const HelperThread &) = delete;
    HelperThread &operator=(const HelperThread &) = delete;

  private:
    lp::Runtime &rt_;
    std::thread thread_;
};

// --- read_mostly ---------------------------------------------------------

constexpr std::size_t kRmNodes = 24576;
constexpr std::size_t kRmDegree = 4;
constexpr int kRmWalk = 1024;
constexpr int kRmRewires = 2;
constexpr std::size_t kRmHeap = 16u << 20;
constexpr std::uint32_t kRmResponseData = 232;
constexpr std::uint64_t kRmReach = 32;
//! Walks the host mirror re-walks; rewires are replayed for every request.
constexpr std::uint64_t kRmCheckEvery = 64;

/**
 * A node within kRmReach of @p i. Edges are local so that a walk works
 * on a cache-resident neighbourhood: its cost is the barrier and the
 * safepoint poll, not cache misses that would hide them (and that vary
 * with whatever else the host runs).
 */
std::uint64_t
nearby(Rng &r, std::uint64_t i)
{
    return (i + kRmNodes - kRmReach + r.below(2 * kRmReach + 1)) % kRmNodes;
}

/** A resident graph plus its host-side mirror (node i is index slot i). */
struct ReadMostlyWorld {
    std::unique_ptr<lp::Runtime> rt; // declared first: outlives the roots
    lp::class_id_t nodeCls = 0;
    lp::class_id_t responseCls = 0;
    std::unique_ptr<lp::GlobalRoot> index;
    std::vector<std::array<std::uint32_t, kRmDegree>> mirror;

    ReadMostlyWorld(std::uint64_t seed, lp::BarrierMode mode)
        : rt(std::make_unique<lp::Runtime>(runtimeConfig(kRmHeap, mode)))
    {
        nodeCls = rt->defineClass("rm.Node", kRmDegree, sizeof(std::uint64_t));
        responseCls = rt->defineClass("rm.Response", 1, kRmResponseData);
        const lp::class_id_t index_cls = rt->defineRefArrayClass("rm.Node[]");
        index = std::make_unique<lp::GlobalRoot>(
            rt->roots(), rt->allocateRefArray(index_cls, kRmNodes));
        for (std::size_t i = 0; i < kRmNodes; ++i) {
            lp::Object *n = rt->allocate(nodeCls);
            lp::writeData<std::uint64_t>(*rt, n, 0, i);
            rt->writeRef(index->get(), i, n);
        }
        Rng g(seed ^ kGraphStream);
        mirror.resize(kRmNodes);
        for (std::size_t i = 0; i < kRmNodes; ++i) {
            lp::Object *n = rt->readRef(index->get(), i);
            for (std::size_t d = 0; d < kRmDegree; ++d) {
                const auto t = static_cast<std::uint32_t>(nearby(g, i));
                mirror[i][d] = t;
                rt->writeRef(n, d, rt->readRef(index->get(), t));
            }
        }
    }
};

/** Seeded walk; returns the node it ends on (managed object). */
template <class Read>
lp::Object *
walk(Read &&read, lp::Object *index, Rng &r)
{
    lp::Object *cur = read(index, r.below(kRmNodes));
    for (int s = 0; s < kRmWalk; ++s)
        cur = read(cur, r.below(kRmDegree));
    return cur;
}

/**
 * One request: a walk drawn from its own generator @p walk_rng (so the
 * check can re-walk a sample of requests without re-drawing the rest)
 * and rewires drawn from the request stream @p r.
 */
template <class P>
std::uint64_t
readMostlyRequest(P &p, ReadMostlyWorld &w, Rng &r, Rng walk_rng)
{
    lp::Object *index = w.index->get();
    lp::Object *end = walk([&](lp::Object *o, std::size_t s) { return p.read(o, s); },
                           index, walk_rng);
    const std::uint64_t end_id = lp::readData<std::uint64_t>(*w.rt, end, 0);
    for (int k = 0; k < kRmRewires; ++k) {
        const std::uint64_t a = r.below(kRmNodes);
        const std::uint64_t slot = r.below(kRmDegree);
        const std::uint64_t b = nearby(r, a);
        lp::Object *src = p.read(index, a);
        lp::Object *dst = p.read(index, b);
        p.write(src, slot, dst);
    }
    // The reply: short-lived, and the only allocation, so collections
    // stay rare. Nodes never move and stay reachable through the index.
    lp::Object *response = p.alloc(w.responseCls);
    p.write(response, 0, end);
    return end_id;
}

/**
 * Replays @p requests on the host mirror; returns the hash of the end
 * ids of every kRmCheckEvery-th walk.
 */
std::uint64_t
replayReadMostly(ReadMostlyWorld &w, std::uint64_t seed, std::uint64_t requests)
{
    std::vector<std::array<std::uint32_t, kRmDegree>> g = w.mirror;
    Rng r(seed ^ kRequestStream);
    std::uint64_t h = kFnvOffset;
    for (std::uint64_t q = 0; q < requests; ++q) {
        if (q % kRmCheckEvery == 0) {
            Rng walk_rng((seed ^ kWalkStream) + q);
            std::uint64_t cur = walk_rng.below(kRmNodes);
            for (int s = 0; s < kRmWalk; ++s)
                cur = g[cur][walk_rng.below(kRmDegree)];
            h = fnv(h, cur);
        }
        for (int k = 0; k < kRmRewires; ++k) {
            const std::uint64_t a = r.below(kRmNodes);
            const std::uint64_t slot = r.below(kRmDegree);
            const std::uint64_t b = nearby(r, a);
            g[a][slot] = static_cast<std::uint32_t>(b);
        }
    }
    return h;
}

void
checkPruningIdle(PhaseResult &out)
{
    const LayerTotals &t = out.layers;
    out.checks.push_back(
        {"pruning idle", t.selectGcs == 0 && t.pruneGcs == 0,
         std::to_string(t.selectGcs) + " SELECT, " + std::to_string(t.pruneGcs) +
             " PRUNE collections"});
}

template <class P>
void
readMostly(const PhaseConfig &cfg, PhaseResult &out)
{
    const auto make = [&] {
        return std::make_unique<ReadMostlyWorld>(cfg.seed, lp::BarrierMode::AllTheTime);
    };
    std::unique_ptr<ReadMostlyWorld> w = buildTimed(out, make);
    P probe(cfg.seed ^ kLatencyStream, 0);
    probe.attach(*w->rt);
    Rng r(cfg.seed ^ kRequestStream);
    std::uint64_t hash = kFnvOffset;
    std::uint64_t done = 0;
    std::string error;

    const Snapshot s0 = snapshot(*w->rt);
    runSliced(cfg.seconds, out, make, [&](std::uint64_t deadline) {
        try {
            while (nowNs() < deadline) {
                ++out.attempted;
                probe.beginRequest();
                const std::uint64_t end = readMostlyRequest(
                    probe, *w, r, Rng((cfg.seed ^ kWalkStream) + done));
                probe.endRequest();
                if (done % kRmCheckEvery == 0)
                    hash = fnv(hash, end);
                ++done;
            }
        } catch (const std::exception &e) {
            ++out.unexpectedErrors;
            error = e.what();
        }
        return error.empty();
    });
    out.completed += done;
    absorb(*w->rt, s0, out);
    out.absorbProbe(probe);

    out.checks.push_back({"no errors", error.empty(), error});
    const bool match = replayReadMostly(*w, cfg.seed, done) == hash;
    out.checks.push_back({"walk ends match host mirror", match,
                          std::to_string(done) + " requests replayed, every " +
                              std::to_string(kRmCheckEvery) + "th walk compared"});
    checkPruningIdle(out);
    checkHeap(*w->rt, out);
}

// --- alloc_churn ---------------------------------------------------------

constexpr unsigned kAcThreads = 2;
constexpr std::size_t kAcRing = 128;
constexpr std::size_t kAcHeap = 8u << 20;
constexpr std::uint64_t kAcInitialLength = 8;

/** What a ring slot should hold: the chain of request `seq`. */
struct ChainRecord {
    std::uint64_t seq = 0;
    std::uint64_t length = 0;
};

/** Per-thread rings of short chains: the small live set. */
struct AllocChurnWorld {
    std::unique_ptr<lp::Runtime> rt;
    lp::class_id_t nodeCls = 0;
    std::array<std::unique_ptr<lp::GlobalRoot>, kAcThreads> rings;
    std::array<std::vector<ChainRecord>, kAcThreads> expected;

    AllocChurnWorld() : rt(std::make_unique<lp::Runtime>(runtimeConfig(kAcHeap)))
    {
        nodeCls = rt->defineClass("ac.Node", 1, 2 * sizeof(std::uint64_t));
        const lp::class_id_t ring_cls = rt->defineRefArrayClass("ac.Node[]");
        lp::HandleScope scope(rt->roots());
        lp::Handle head = scope.handle();
        lp::Handle tail = scope.handle();
        for (unsigned t = 0; t < kAcThreads; ++t) {
            rings[t] = std::make_unique<lp::GlobalRoot>(
                rt->roots(), rt->allocateRefArray(ring_cls, kAcRing));
            expected[t].assign(kAcRing, {0, kAcInitialLength});
            for (std::size_t slot = 0; slot < kAcRing; ++slot)
                buildChain(*rt, t, slot, 0, kAcInitialLength, head, tail,
                           [&](lp::Object *o, std::size_t s, lp::Object *v) {
                               rt->writeRef(o, s, v);
                           },
                           [&] { return rt->allocate(nodeCls); });
        }
    }

    /** Allocate a chain of @p length nodes stamped (seq, position). */
    template <class Write, class Alloc>
    void
    buildChain(lp::Runtime &r, unsigned t, std::size_t slot, std::uint64_t seq,
               std::uint64_t length, lp::Handle &head, lp::Handle &tail,
               Write &&write, Alloc &&alloc)
    {
        head.set(alloc());
        stamp(r, head.get(), seq, 0);
        tail.set(head.get());
        for (std::uint64_t i = 1; i < length; ++i) {
            lp::Object *n = alloc();
            stamp(r, n, seq, i);
            write(tail.get(), 0, n);
            tail.set(n);
        }
        write(rings[t]->get(), slot, head.get());
        expected[t][slot] = {seq, length};
        head.set(nullptr);
        tail.set(nullptr);
    }

    static void
    stamp(lp::Runtime &r, lp::Object *n, std::uint64_t seq, std::uint64_t pos)
    {
        lp::writeData<std::uint64_t>(r, n, 0, seq);
        lp::writeData<std::uint64_t>(r, n, sizeof(std::uint64_t), pos);
    }

    /** Ring slots whose chain differs from the expected record. */
    std::uint64_t
    mismatches()
    {
        std::uint64_t bad = 0;
        for (unsigned t = 0; t < kAcThreads; ++t) {
            for (std::size_t slot = 0; slot < kAcRing; ++slot) {
                const ChainRecord want = expected[t][slot];
                std::uint64_t pos = 0;
                bool ok = true;
                for (lp::Object *n = rt->readRef(rings[t]->get(), slot); n;
                     n = rt->readRef(n, 0), ++pos) {
                    ok = ok && lp::readData<std::uint64_t>(*rt, n, 0) == want.seq &&
                         lp::readData<std::uint64_t>(*rt, n, 8) == pos;
                }
                bad += ok && pos == want.length ? 0 : 1;
            }
        }
        return bad;
    }
};

template <class P>
void
allocChurn(const PhaseConfig &cfg, PhaseResult &out)
{
    const auto make = [] { return std::make_unique<AllocChurnWorld>(); };
    std::unique_ptr<AllocChurnWorld> w = buildTimed(out, make);

    struct Mutator {
        Mutator(std::uint64_t seed, unsigned t)
            : probe(seed ^ kLatencyStream ^ t, t), rng((seed ^ kRequestStream) + t)
        {}
        P probe;
        Rng rng;
        std::uint64_t attempted = 0;
        std::uint64_t completed = 0;
        std::string error;
    };
    std::vector<std::unique_ptr<Mutator>> muts;
    for (unsigned t = 0; t < kAcThreads; ++t)
        muts.push_back(std::make_unique<Mutator>(cfg.seed, t));

    const auto loop = [&](unsigned t, std::uint64_t deadline) {
        Mutator &m = *muts[t];
        m.probe.attach(*w->rt);
        Rng &r = m.rng;
        lp::HandleScope scope(w->rt->roots());
        lp::Handle head = scope.handle();
        lp::Handle tail = scope.handle();
        try {
            while (nowNs() < deadline) {
                ++m.attempted;
                m.probe.beginRequest();
                const std::uint64_t length = r.between(4, 32);
                const std::size_t slot = r.below(kAcRing);
                w->buildChain(
                    *w->rt, t, slot, m.attempted, length, head, tail,
                    [&](lp::Object *o, std::size_t s, lp::Object *v) {
                        m.probe.write(o, s, v);
                    },
                    [&] { return m.probe.alloc(w->nodeCls); });
                m.probe.endRequest();
                ++m.completed;
            }
        } catch (const std::exception &e) {
            m.error = e.what();
        }
    };

    const Snapshot s0 = snapshot(*w->rt);
    runSliced(cfg.seconds, out, make, [&](std::uint64_t deadline) {
        {
            HelperThread helper(*w->rt, [&] { loop(1, deadline); });
            loop(0, deadline);
        }
        return std::all_of(muts.begin(), muts.end(),
                           [](const auto &m) { return m->error.empty(); });
    });
    absorb(*w->rt, s0, out);

    std::string errors;
    for (std::unique_ptr<Mutator> &m : muts) {
        out.attempted += m->attempted;
        out.completed += m->completed;
        if (!m->error.empty()) {
            ++out.unexpectedErrors;
            errors += m->error + "; ";
        }
        out.absorbProbe(m->probe);
    }
    out.checks.push_back({"no errors", errors.empty(), errors});
    const std::uint64_t bad = w->mismatches();
    out.checks.push_back({"ring chains intact", bad == 0,
                          std::to_string(bad) + " of " +
                              std::to_string(kAcThreads * kAcRing) +
                              " slots differ"});
    checkPruningIdle(out);
    checkHeap(*w->rt, out);
}

// --- leak_server ---------------------------------------------------------

constexpr std::size_t kLsHeap = 16u << 20;
constexpr std::size_t kLsHot = 1024;
constexpr int kLsHotRandomReads = 4;
constexpr int kLsHotSweepReads = 4; // round-robin: every user read often
constexpr std::uint64_t kLsLeakPercent = 30;

/** Hot user table (read every request) and a leaked-session registry. */
struct LeakServerWorld {
    std::unique_ptr<lp::Runtime> rt;
    std::unique_ptr<lp::ManagedList> registryType;
    lp::class_id_t requestCls = 0, itemCls = 0, payloadCls = 0;
    lp::class_id_t sessionCls = 0, stateCls = 0;
    lp::class_id_t churnCls = 0, churnBufCls = 0;
    std::unique_ptr<lp::GlobalRoot> hot;
    std::unique_ptr<lp::GlobalRoot> registry;

    LeakServerWorld() : rt(std::make_unique<lp::Runtime>(runtimeConfig(kLsHeap)))
    {
        registryType = std::make_unique<lp::ManagedList>(*rt, "ls.Registry");
        const lp::class_id_t user_cls = rt->defineClass("ls.User", 2, 16);
        const lp::class_id_t profile_cls = rt->defineClass("ls.Profile", 0, 64);
        const lp::class_id_t table_cls = rt->defineRefArrayClass("ls.User[]");
        requestCls = rt->defineClass("ls.Request", 1, 16);
        itemCls = rt->defineClass("ls.Item", 2, 32);
        payloadCls = rt->defineByteArrayClass("ls.Payload");
        sessionCls = rt->defineClass("ls.Session", 2, 16);
        stateCls = rt->defineByteArrayClass("ls.SessionState");
        churnCls = rt->defineClass("ls.Churn", 2, 16);
        churnBufCls = rt->defineByteArrayClass("ls.ChurnBuffer");

        hot = std::make_unique<lp::GlobalRoot>(
            rt->roots(), rt->allocateRefArray(table_cls, kLsHot));
        for (std::size_t i = 0; i < kLsHot; ++i) {
            lp::Object *user = rt->allocate(user_cls);
            rt->writeRef(hot->get(), i, user);
            lp::Object *profile = rt->allocate(profile_cls);
            lp::writeData<std::uint64_t>(*rt, profile, 0, i);
            rt->writeRef(user, 0, profile);
        }
        registry = std::make_unique<lp::GlobalRoot>(rt->roots(),
                                                    registryType->create());
    }
};

/** Per-thread handles a request reuses (one scope for the whole run). */
struct LsHandles {
    explicit LsHandles(lp::Runtime &rt)
        : scope(rt.roots()), request(scope.handle()), item(scope.handle()),
          session(scope.handle())
    {}
    lp::HandleScope scope;
    lp::Handle request, item, session;
};

/** One server request; returns true when it leaked its session. */
template <class P>
bool
leakServerRequest(P &p, LeakServerWorld &w, Rng &r, LsHandles &h,
                  std::uint64_t &sweep, std::uint64_t &hot_sum,
                  std::uint64_t &want_sum)
{
    lp::Object *hot = w.hot->get();
    for (int k = 0; k < kLsHotRandomReads + kLsHotSweepReads; ++k) {
        const std::uint64_t idx =
            k < kLsHotRandomReads ? r.below(kLsHot) : sweep++ % kLsHot;
        lp::Object *user = p.read(hot, idx);
        lp::Object *profile = p.read(user, 0);
        hot_sum += lp::readData<std::uint64_t>(*w.rt, profile, 0);
        want_sum += idx;
    }

    h.request.set(p.alloc(w.requestCls));
    const std::uint64_t items = r.between(2, 6);
    for (std::uint64_t i = 0; i < items; ++i) {
        h.item.set(p.alloc(w.itemCls));
        lp::Object *payload = p.allocBytes(w.payloadCls, r.between(64, 256));
        p.write(h.item.get(), 1, payload);
        p.write(h.item.get(), 0, p.read(h.request.get(), 0));
        p.write(h.request.get(), 0, h.item.get());
    }
    h.session.set(p.alloc(w.sessionCls));
    lp::Object *state = p.allocBytes(w.stateCls, r.between(512, 2048));
    p.write(h.session.get(), 0, state);
    p.write(h.session.get(), 1, h.request.get());
    const bool leak = r.below(100) < kLsLeakPercent;
    if (leak)
        p.listPush(*w.registryType, w.registry->get(), h.session.get());
    h.request.set(nullptr);
    h.item.set(nullptr);
    h.session.set(nullptr);
    return leak;
}

template <class P>
void
leakServer(const PhaseConfig &cfg, PhaseResult &out)
{
    const auto make = [] { return std::make_unique<LeakServerWorld>(); };
    std::unique_ptr<LeakServerWorld> w = buildTimed(out, make);
    P server(cfg.seed ^ kLatencyStream, 0);
    P churner(cfg.seed ^ kLatencyStream ^ 1, 1);
    server.attach(*w->rt);
    churner.attach(*w->rt);

    // The churn client is closed-loop too: one churn batch per served
    // request, so the allocation mix per request does not depend on
    // how the two threads happen to be scheduled. When it is ahead it
    // sleeps as a blocked (safepoint-equivalent) thread rather than
    // spinning on a core the server could use.
    std::atomic<std::uint64_t> served{0};
    std::atomic<bool> stop{false};
    std::uint64_t batches = 0;
    std::string churn_error;
    const auto churn = [&] {
        lp::HandleScope scope(w->rt->roots());
        lp::Handle head = scope.handle();
        try {
            while (!stop.load(std::memory_order_relaxed)) {
                if (batches >= served.load(std::memory_order_acquire)) {
                    lp::BlockedScope idle(w->rt->threads());
                    std::this_thread::sleep_for(std::chrono::microseconds(50));
                    continue;
                }
                head.set(churner.alloc(w->churnCls));
                for (int j = 0; j < 3; ++j)
                    churner.write(head.get(), j & 1, churner.alloc(w->churnCls));
                churner.write(head.get(), 1,
                              churner.allocBytes(w->churnBufCls, 256));
                head.set(nullptr);
                ++batches;
            }
        } catch (const std::exception &e) {
            churn_error = e.what();
        }
    };

    Rng r(cfg.seed ^ kRequestStream);
    std::uint64_t sweep = 0, hot_sum = 0, want_sum = 0, leaked = 0, done = 0;
    std::string error;
    const Snapshot s0 = snapshot(*w->rt);
    runSliced(cfg.seconds, out, make, [&](std::uint64_t deadline) {
        stop.store(false, std::memory_order_relaxed);
        {
            HelperThread helper(*w->rt, churn);
            LsHandles h(*w->rt);
            try {
                while (nowNs() < deadline) {
                    ++out.attempted;
                    server.beginRequest();
                    leaked += leakServerRequest(server, *w, r, h, sweep, hot_sum,
                                                want_sum);
                    server.endRequest();
                    ++done;
                    served.store(done, std::memory_order_release);
                }
            } catch (const std::exception &e) {
                error = e.what();
            }
            stop.store(true, std::memory_order_relaxed);
        }
        return error.empty() && churn_error.empty();
    });
    out.completed += done;
    absorb(*w->rt, s0, out);
    out.absorbProbe(server);
    out.absorbProbe(churner);

    if (!error.empty())
        ++out.unexpectedErrors;
    if (!churn_error.empty())
        ++out.unexpectedErrors;
    const LayerTotals &t = out.layers;
    out.checks.push_back({"alive, no errors",
                          error.empty() && churn_error.empty(),
                          error + (churn_error.empty() ? "" : "; churn: ") +
                              churn_error});
    out.checks.push_back({"zero InternalErrors", t.poisonThrows == 0,
                          std::to_string(t.poisonThrows) + " poisoned accesses"});
    out.checks.push_back({"pruning cycled to PRUNE", t.pruneGcs >= 1,
                          std::to_string(t.selectGcs) + " SELECT, " +
                              std::to_string(t.pruneGcs) + " PRUNE collections"});
    out.checks.push_back({"hot reads saw their profiles", hot_sum == want_sum,
                          std::to_string(done) + " requests"});
    const std::uint64_t listed = w->registryType->size(w->registry->get());
    out.checks.push_back({"registry holds every leaked session",
                          listed == leaked,
                          std::to_string(listed) + " listed, " +
                              std::to_string(leaked) + " leaked"});
    checkHeap(*w->rt, out);
}

// --- oom_horizon ---------------------------------------------------------

constexpr std::size_t kOhHeap = 2u << 20;
constexpr std::uint64_t kOhAttempts = 32768;
constexpr std::uint64_t kOhMaintenancePeriod = 64;
constexpr std::uint64_t kOhPrefill = 256;
/**
 * Episode seeds a run cycles through, all drawn from --seed. The
 * survival horizon differs from one episode seed to the next (a few die
 * near 8000 requests, most near 15000, and an early death skips the
 * collection-heavy end, so its request rate is almost twice as high);
 * cycling through many keeps a run's rate from riding on one horizon,
 * and repeats each one so its survival count can be compared.
 */
constexpr std::size_t kOhSeedCycle = 16;

/**
 * MySQL-shaped: a live statement table (scanned periodically and
 * rehashed on growth) whose statements root dead result rows.
 */
struct OomHorizonWorld {
    std::unique_ptr<lp::Runtime> rt;
    std::unique_ptr<lp::ManagedHashMap> tableType;
    lp::class_id_t stmtCls = 0, rowCls = 0, bufCls = 0;
    std::unique_ptr<lp::GlobalRoot> table;

    explicit OomHorizonWorld(std::uint64_t seed)
        : rt(std::make_unique<lp::Runtime>(runtimeConfig(kOhHeap)))
    {
        tableType = std::make_unique<lp::ManagedHashMap>(*rt, "oh.Statements");
        stmtCls = rt->defineClass("oh.PreparedStatement", 1, 24);
        rowCls = rt->defineClass("oh.ResultRow", 1, 1024);
        bufCls = rt->defineByteArrayClass("oh.RowBuffer");
        table = std::make_unique<lp::GlobalRoot>(rt->roots(), tableType->create());
        // The initial graph: statements prepared before traffic starts.
        Rng g(seed ^ kGraphStream);
        lp::HandleScope scope(rt->roots());
        lp::Handle stmt = scope.handle();
        for (std::uint64_t id = 0; id < kOhPrefill; ++id) {
            stmt.set(rt->allocate(stmtCls));
            lp::writeData<std::uint64_t>(*rt, stmt.get(), 0, g.next());
            tableType->put(table->get(), id, stmt.get());
        }
    }
};

template <class P>
void
oomHorizonRequest(P &p, OomHorizonWorld &w, Rng &r, std::uint64_t id,
                  lp::Handle &row, lp::Handle &stmt)
{
    lp::Object *buf = p.allocBytes(w.bufCls, r.between(1536, 2560));
    row.set(p.alloc(w.rowCls));
    p.write(row.get(), 0, buf);
    stmt.set(p.alloc(w.stmtCls));
    p.write(stmt.get(), 0, row.get());
    p.mapPut(*w.tableType, w.table->get(), id, stmt.get());
    if (id % kOhMaintenancePeriod == kOhMaintenancePeriod - 1)
        p.mapScan(*w.tableType, w.table->get(), [](std::uint64_t, lp::Object *) {});
    row.set(nullptr);
    stmt.set(nullptr);
}

template <class P>
void
oomHorizon(const PhaseConfig &cfg, PhaseResult &out)
{
    P probe(cfg.seed ^ kLatencyStream, 0);
    std::array<std::uint64_t, kOhSeedCycle> seeds{};
    Rng episode_rng(cfg.seed ^ kEpisodeStream);
    for (std::uint64_t &s : seeds)
        s = episode_rng.next();
    std::vector<std::uint64_t> survived; // per episode
    std::uint64_t oom = 0, internal = 0, other = 0, alive = 0, unclean = 0;
    std::string detail;

    // Episodes: a fresh runtime each, the seeded requests of its episode
    // seed, run to the out-of-memory horizon. Start one only while time
    // remains.
    const std::uint64_t deadline = deadlineAfter(cfg.seconds);
    while (survived.empty() || nowNs() < deadline) {
        const std::uint64_t episode_seed = seeds[survived.size() % kOhSeedCycle];
        const std::uint64_t b0 = nowNs();
        auto w = std::make_unique<OomHorizonWorld>(episode_seed);
        out.setupSeconds.push_back(seconds(nowNs() - b0));
        probe.attach(*w->rt);
        Rng r((episode_seed ^ kRequestStream) + kOhPrefill);
        std::uint64_t done = 0;

        const Snapshot s0 = snapshot(*w->rt);
        const std::uint64_t t0 = nowNs();
        {
            lp::HandleScope scope(w->rt->roots());
            lp::Handle row = scope.handle();
            lp::Handle stmt = scope.handle();
            try {
                for (std::uint64_t id = kOhPrefill; id < kOhPrefill + kOhAttempts;
                     ++id) {
                    probe.beginRequest();
                    oomHorizonRequest(probe, *w, r, id, row, stmt);
                    probe.endRequest();
                    ++done;
                }
                ++alive;
            } catch (const lp::OutOfMemoryError &) {
                ++oom;
            } catch (const lp::InternalError &e) {
                ++internal;
                detail = e.what();
            } catch (const std::exception &e) {
                ++other;
                detail = e.what();
            }
        }
        out.wallSeconds += seconds(nowNs() - t0);
        out.attempted += kOhAttempts;
        out.completed += done;
        survived.push_back(done);
        absorb(*w->rt, s0, out);
        if (!w->rt->verifyHeap().clean())
            ++unclean;
    }
    out.absorbProbe(probe);
    out.unexpectedErrors += internal + other;

    const std::size_t episodes = survived.size();
    out.checks.push_back({"every episode ends in OutOfMemoryError",
                          oom == episodes,
                          std::to_string(oom) + " OOM, " + std::to_string(internal) +
                              " InternalError, " + std::to_string(alive) +
                              " alive, " + std::to_string(other) + " other " +
                              detail});
    std::uint64_t repeats = 0, differing = 0;
    for (std::size_t e = kOhSeedCycle; e < episodes; ++e) {
        ++repeats;
        differing += survived[e] != survived[e % kOhSeedCycle];
    }
    const auto [least, most] = std::minmax_element(survived.begin(), survived.end());
    out.checks.push_back({"same survival count on every repeat of an episode seed",
                          differing == 0,
                          std::to_string(differing) + " of " + std::to_string(repeats) +
                              " repeats differ; " + std::to_string(episodes) +
                              " episodes over " +
                              std::to_string(std::min(episodes, kOhSeedCycle)) +
                              " seeds survived " + std::to_string(*least) + " to " +
                              std::to_string(*most) + " requests"});
    out.checks.push_back({"pruning extended the run", out.layers.pruneGcs >= 1,
                          std::to_string(out.layers.pruneGcs) + " PRUNE collections"});
    out.checks.push_back({"verifyHeap clean", unclean == 0,
                          std::to_string(unclean) + " of " +
                              std::to_string(episodes) + " episodes unclean"});
}

template <class P>
bool
dispatch(const std::string &workload, const PhaseConfig &cfg, PhaseResult &out)
{
    if (workload == "leak_server")
        leakServer<P>(cfg, out);
    else if (workload == "read_mostly")
        readMostly<P>(cfg, out);
    else if (workload == "alloc_churn")
        allocChurn<P>(cfg, out);
    else if (workload == "oom_horizon")
        oomHorizon<P>(cfg, out);
    else
        return false;
    return true;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "leak_server", "read_mostly", "alloc_churn", "oom_horizon"};
    return names;
}

ThreadPlan
threadPlan(const std::string &workload)
{
    ThreadPlan plan;
    if (workload == "leak_server" || workload == "alloc_churn")
        plan.mutators = 2;
    return plan;
}

bool
runPhase(const std::string &workload, const PhaseConfig &cfg, PhaseResult &out)
{
    return cfg.traced ? dispatch<TracedProbe>(workload, cfg, out)
                      : dispatch<DirectProbe>(workload, cfg, out);
}

double
barrierOverheadX(std::uint64_t seed)
{
    constexpr int kWalksPerRep = 4096;
    ReadMostlyWorld with(seed, lp::BarrierMode::AllTheTime);
    ReadMostlyWorld without(seed, lp::BarrierMode::None);
    const auto time_walks = [&](ReadMostlyWorld &w, int rep) {
        lp::Runtime &rt = *w.rt;
        Rng r((seed ^ kRequestStream) + static_cast<std::uint64_t>(rep));
        std::uint64_t sink = 0;
        const std::uint64_t t0 = nowNs();
        for (int i = 0; i < kWalksPerRep; ++i) {
            lp::Object *end = walk(
                [&](lp::Object *o, std::size_t s) { return rt.readRef(o, s); },
                w.index->get(), r);
            sink += reinterpret_cast<std::uintptr_t>(end);
        }
        const std::uint64_t dt = nowNs() - t0;
        return sink == 1 ? dt + 1 : dt; // keeps the walks observable
    };
    std::vector<double> ratios;
    for (int rep = 0; rep < kBarrierReps; ++rep) {
        // Alternate which mode runs first so drift cancels.
        std::uint64_t a = 0, b = 0;
        if (rep % 2 == 0) {
            a = time_walks(with, rep);
            b = time_walks(without, rep);
        } else {
            b = time_walks(without, rep);
            a = time_walks(with, rep);
        }
        ratios.push_back(static_cast<double>(a) / static_cast<double>(b));
    }
    std::sort(ratios.begin(), ratios.end());
    return ratios[ratios.size() / 2];
}

} // namespace lpbench

/**
 * @file
 * Telemetry-layer tests (DESIGN.md "Telemetry & tracing"): concurrent
 * emission from many mutator threads into the one capped buffer (the
 * TSan workhorse for the engine's lock and track map), the cap and
 * its drop accounting, exporter output validated by parsing the JSON
 * back, the metrics export rendered from the collector's statistics,
 * audit-trail accuracy attribution, and the null-engine no-ops a bare
 * Heap relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/audit.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_event.h"
#include "vm/handles.h"
#include "vm/runtime.h"

namespace lp {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON reader, enough to validate exporter output by actually
// parsing it back (structure errors fail the parse, not just a grep).

struct JsonValue {
    enum class Type { Null, Bool, Number, String, Array, Object } type =
        Type::Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue &
    at(const std::string &key) const
    {
        static const JsonValue missing;
        auto it = object.find(key);
        return it == object.end() ? missing : it->second;
    }
    bool has(const std::string &key) const { return object.count(key) > 0; }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    bool
    parse(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        return pos_ == text_.size(); // no trailing garbage
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"': out.type = JsonValue::Type::String;
                    return parseString(out.str);
          case 't': out.type = JsonValue::Type::Bool; out.boolean = true;
                    return literal("true");
          case 'f': out.type = JsonValue::Type::Bool; out.boolean = false;
                    return literal("false");
          case 'n': out.type = JsonValue::Type::Null;
                    return literal("null");
          default:  return parseNumber(out);
        }
    }

    bool
    parseString(std::string &out)
    {
        if (text_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return false;
                c = text_[pos_++];
                switch (c) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  default: break; // \" \\ \/ pass through
                }
            }
            out.push_back(c);
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            return false;
        out.type = JsonValue::Type::Number;
        out.number = std::strtod(text_.substr(start, pos_ - start).c_str(),
                                 nullptr);
        return true;
    }

    bool
    parseArray(JsonValue &out)
    {
        out.type = JsonValue::Type::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.array.push_back(std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.type = JsonValue::Type::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (pos_ >= text_.size() || !parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return false;
            ++pos_;
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.object.emplace(std::move(key), std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

JsonValue
parseJsonOrDie(const std::string &text)
{
    JsonValue v;
    EXPECT_TRUE(JsonParser(text).parse(v)) << "unparseable JSON:\n" << text;
    return v;
}

/** Write @p rt's metrics JSON to a scratch file and parse it back. */
JsonValue
metricsJsonOf(Runtime &rt)
{
    const std::string path = ::testing::TempDir() + "lp_metrics_" +
                             ::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name() +
                             ".json";
    EXPECT_TRUE(rt.writeMetricsJson(path));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    return parseJsonOrDie(text.str());
}

// ---------------------------------------------------------------------------
// Telemetry engine

TEST(TelemetryTest, ConcurrentEmitManyThreads)
{
    // The TSan scenario: >= 4 producer threads appending to the shared
    // buffer at once, each lazily creating its track, while this
    // thread reads snapshots.
    constexpr int kThreads = 4;
    constexpr int kPerThread = 1000;
    constexpr int kRounds = 3;

    Telemetry tel;
    for (int round = 0; round < kRounds; ++round) {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&tel, t, round] {
                tel.setThreadName("producer-" + std::to_string(t));
                // The a64 payload encodes (round, index) as one
                // increasing value: a later round's thread can reuse an
                // earlier thread's id (and therefore its track), so
                // only round-qualified payloads are globally monotonic
                // per track.
                for (int i = 0; i < kPerThread; ++i)
                    tel.emitInstant(
                        TracePhase::CacheRefill, static_cast<std::uint32_t>(t),
                        static_cast<std::uint64_t>(round) * kPerThread + i);
            });
        }
        EXPECT_LE(tel.events().size(),
                  static_cast<std::size_t>(kThreads * kPerThread * (round + 1)));
        EXPECT_EQ(tel.droppedEvents(), 0u);
        for (std::thread &t : threads)
            t.join();
    }

    const std::vector<DrainedEvent> events = tel.events();
    EXPECT_EQ(events.size(),
              static_cast<std::size_t>(kThreads * kPerThread * kRounds));
    EXPECT_EQ(tel.droppedEvents(), 0u);
    EXPECT_GE(tel.threadCount(), static_cast<std::size_t>(kThreads));

    // Per-track emission order is kept: the round-qualified a64
    // payloads must be strictly increasing within each tid.
    std::map<std::uint32_t, std::uint64_t> last_index;
    std::map<std::uint32_t, std::size_t> per_tid;
    for (const DrainedEvent &de : events) {
        ASSERT_NE(de.tid, Telemetry::kGcTrackId);
        const auto it = last_index.find(de.tid);
        if (it != last_index.end()) {
            EXPECT_GT(de.ev.a64, it->second);
        }
        last_index[de.tid] = de.ev.a64;
        ++per_tid[de.tid];
    }
    for (const auto &[tid, count] : per_tid)
        EXPECT_EQ(count % kPerThread, 0u) << "tid " << tid;
}

TEST(TelemetryTest, OneThreadBurstBetweenPausesIsKept)
{
    // Only the shared cap bounds what one thread may emit between two
    // collections.
    constexpr std::size_t kBurst = 16468;
    RuntimeConfig cfg;
    cfg.heapBytes = 8u << 20;
    Runtime rt(cfg);
    Telemetry *tel = rt.telemetry();
    const std::size_t before = tel->events().size();
    for (std::size_t i = 0; i < kBurst; ++i)
        tel->emitInstant(TracePhase::CacheRefill);
    EXPECT_EQ(tel->events().size(), before + kBurst);
    EXPECT_EQ(tel->droppedEvents(), 0u);
    EXPECT_EQ(metricsJsonOf(rt).at("gauges").at("telemetry.dropped_events").number,
              0.0);
}

TEST(TelemetryTest, EngineOverflowIsCountedAndSurfaced)
{
    constexpr std::size_t kExcess = 84;
    RuntimeConfig cfg;
    cfg.heapBytes = 8u << 20;
    Runtime rt(cfg);
    Telemetry *tel = rt.telemetry();
    const std::size_t room =
        Telemetry::kMaxDrainedEvents - tel->events().size();
    for (std::size_t i = 0; i < room + kExcess; ++i)
        tel->emitInstant(TracePhase::CacheRefill);
    EXPECT_EQ(tel->events().size(), Telemetry::kMaxDrainedEvents);
    EXPECT_EQ(tel->droppedEvents(), kExcess);

    // The metrics export surfaces the loss so a truncated trace is
    // never mistaken for a complete one.
    const JsonValue root = metricsJsonOf(rt);
    EXPECT_EQ(root.at("gauges").at("telemetry.dropped_events").number,
              static_cast<double>(kExcess));
    // So does the trace itself, which check_trace.py then rejects.
    std::ostringstream trace;
    tel->writeChromeTrace(trace);
    EXPECT_EQ(parseJsonOrDie(trace.str())
                  .at("otherData")
                  .at("dropped_events")
                  .number,
              static_cast<double>(kExcess));
}

TEST(TelemetryTest, DrainedBufferIsCapped)
{
    constexpr std::size_t kExcess = 1000;
    Telemetry tel;
    for (std::size_t i = 0; i < Telemetry::kMaxDrainedEvents + kExcess; ++i)
        tel.emitInstant(TracePhase::CacheRefill, 0, i);
    const std::vector<DrainedEvent> events = tel.events();
    EXPECT_EQ(events.size(), Telemetry::kMaxDrainedEvents);
    EXPECT_EQ(tel.droppedEvents(), kExcess);
    // Newest events are the ones refused: the buffer ends with the
    // last event that fit.
    EXPECT_EQ(events.back().ev.a64, Telemetry::kMaxDrainedEvents - 1);
}

TEST(TelemetryTest, ChromeTraceParsesBackWithTracks)
{
    Telemetry tel;
    tel.setThreadName("main-mutator");
    tel.emitSpan(TracePhase::GcPause, 1000, 5000, 7, 12345,
                 /*gc_track=*/true);
    tel.emitSpan(TracePhase::GcMark, 1100, 2000, 0, 0, /*gc_track=*/true);
    tel.emitInstant(TracePhase::PruneDecision, 3, 4096, /*gc_track=*/true);
    tel.emitInstant(TracePhase::CacheRefill, 2, 8192);

    std::thread other([&tel] {
        tel.setThreadName("second-mutator");
        tel.emitInstant(TracePhase::PoisonAccess, 9);
    });
    other.join();

    std::ostringstream os;
    tel.writeChromeTrace(os);
    const JsonValue root = parseJsonOrDie(os.str());

    const JsonValue &events = root.at("traceEvents");
    ASSERT_EQ(events.type, JsonValue::Type::Array);

    std::map<std::string, int> by_phase; // ph letter -> count
    std::map<double, std::string> track_names;
    bool saw_gc_span = false, saw_mutator_instant = false;
    for (const JsonValue &ev : events.array) {
        const std::string ph = ev.at("ph").str;
        ++by_phase[ph];
        if (ph == "M") {
            if (ev.at("name").str == "thread_name")
                track_names[ev.at("tid").number] =
                    ev.at("args").at("name").str;
            continue;
        }
        // Every non-metadata event carries a timestamp, a track, and a
        // phase name the exporter produced from the enum.
        ASSERT_TRUE(ev.has("ts"));
        ASSERT_TRUE(ev.has("tid"));
        ASSERT_FALSE(ev.at("name").str.empty());
        if (ph == "X") {
            ASSERT_TRUE(ev.has("dur"));
            if (ev.at("name").str == "gc.pause") {
                saw_gc_span = true;
                EXPECT_EQ(ev.at("tid").number, Telemetry::kGcTrackId);
                EXPECT_EQ(ev.at("ts").number, 1.0);  // 1000 ns == 1 us
                EXPECT_EQ(ev.at("dur").number, 4.0); // 4000 ns
            }
        } else if (ph == "i") {
            EXPECT_EQ(ev.at("s").str, "t"); // thread-scoped instant
            if (ev.at("name").str == "cache.refill") {
                saw_mutator_instant = true;
                EXPECT_NE(ev.at("tid").number, Telemetry::kGcTrackId);
            }
        }
    }
    EXPECT_EQ(by_phase["X"], 2);
    EXPECT_EQ(by_phase["i"], 3);
    EXPECT_TRUE(saw_gc_span);
    EXPECT_TRUE(saw_mutator_instant);

    // Three named tracks: GC (synthetic), main-mutator, second-mutator.
    ASSERT_EQ(track_names.size(), 3u);
    EXPECT_EQ(track_names[0], "GC");
    std::vector<std::string> names;
    for (const auto &[tid, name] : track_names)
        names.push_back(name);
    EXPECT_NE(std::find(names.begin(), names.end(), "main-mutator"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "second-mutator"),
              names.end());
}

// ---------------------------------------------------------------------------
// Metrics export: every figure comes from the collector's own statistics.

TEST(MetricsTest, ExportRendersGcStats)
{
    RuntimeConfig cfg;
    cfg.heapBytes = 8u << 20;
    Runtime rt(cfg);
    const class_id_t cls = rt.defineClass("test.Node", 1, 32);
    {
        MutatorScope mutator(rt.threads());
        HandleScope scope(rt.roots());
        Handle keep = scope.handle(nullptr);
        for (int round = 0; round < 3; ++round) {
            for (int i = 0; i < 1000; ++i) {
                Object *obj = rt.allocate(cls);
                rt.writeRef(obj, 0, keep.get());
                keep.set(obj);
            }
            rt.collectNow();
        }
    }
    const JsonValue root = metricsJsonOf(rt);
    const GcStats &gc = rt.gcStats();
    ASSERT_GE(gc.collections, 3u);

    const double collections = root.at("counters").at("gc.collections").number;
    EXPECT_EQ(collections, static_cast<double>(gc.collections));
    EXPECT_EQ(root.at("counters").at("gc.objects_finalized").number,
              static_cast<double>(gc.objectsFinalized));
    const JsonValue &gauges = root.at("gauges");
    EXPECT_EQ(gauges.at("gc.live_bytes").number,
              static_cast<double>(gc.lastLiveBytes));
    EXPECT_TRUE(gauges.has("telemetry.dropped_events"));
    EXPECT_EQ(gauges.at("telemetry.threads").number,
              static_cast<double>(rt.telemetry()->threadCount()));

    for (const char *name : {"gc.pause_nanos", "gc.safepoint_wait_nanos"}) {
        const JsonValue &hist = root.at("histograms").at(name);
        EXPECT_EQ(hist.at("count").number, collections) << name;
        EXPECT_GE(hist.at("p95").number, hist.at("p50").number) << name;
        double bucket_total = 0;
        for (const JsonValue &b : hist.at("buckets").array) {
            EXPECT_GT(b.at("count").number, 0.0); // zero buckets omitted
            bucket_total += b.at("count").number;
        }
        EXPECT_EQ(bucket_total, collections) << name;
    }
}

// ---------------------------------------------------------------------------
// Audit trail

PruneAuditRecord
typedPrune(std::uint64_t epoch, std::uint32_t src, std::uint32_t tgt,
           std::uint64_t refs, std::uint64_t bytes)
{
    PruneAuditRecord rec;
    rec.epoch = epoch;
    rec.hasType = true;
    rec.srcClass = src;
    rec.tgtClass = tgt;
    rec.typeName = "C" + std::to_string(src) + " -> C" + std::to_string(tgt);
    rec.refsPoisoned = refs;
    rec.bytesReclaimed = bytes;
    return rec;
}

TEST(AuditTrailTest, UngradedWithoutPrunes)
{
    PruneAuditTrail trail;
    const PruneAuditSummary s = trail.summary();
    EXPECT_FALSE(s.graded);
    EXPECT_EQ(s.records, 0u);
    EXPECT_EQ(s.accuracy, 1.0);

    // A poison access with no decision on file is unattributed but
    // still counted: the totals must never silently lose a throw.
    trail.recordPoisonAccess(42);
    const PruneAuditSummary after = trail.summary();
    EXPECT_EQ(after.unattributedHits, 1u);
    EXPECT_EQ(after.poisonHits + after.unattributedHits, 1u);
}

TEST(AuditTrailTest, AttributionAndAccuracy)
{
    PruneAuditTrail trail;
    trail.recordPrune(typedPrune(10, /*src=*/1, /*tgt=*/2, 100, 6000));
    trail.recordPrune(typedPrune(20, /*src=*/3, /*tgt=*/4, 50, 4000));

    // Two accesses through class-1 sources: both land on the first
    // decision; class 3 lands on the second.
    trail.recordPoisonAccess(1);
    trail.recordPoisonAccess(1);
    trail.recordPoisonAccess(3);

    const PruneAuditSummary s = trail.summary();
    EXPECT_TRUE(s.graded);
    EXPECT_EQ(s.records, 2u);
    EXPECT_EQ(s.refsPoisoned, 150u);
    EXPECT_EQ(s.bytesReclaimed, 10000u);
    EXPECT_EQ(s.poisonHits, 3u);
    EXPECT_EQ(s.unattributedHits, 0u);
    // Both decisions were hit, so every pruned byte was mispredicted.
    EXPECT_EQ(s.bytesMispredicted, 10000u);
    EXPECT_DOUBLE_EQ(s.accuracy, 0.0);

    const std::vector<PruneAuditRecord> recs = trail.records();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].poisonHits, 2u);
    EXPECT_EQ(recs[1].poisonHits, 1u);
}

TEST(AuditTrailTest, NewestMatchingDecisionWins)
{
    PruneAuditTrail trail;
    trail.recordPrune(typedPrune(10, 1, 2, 10, 1000));
    trail.recordPrune(typedPrune(20, 1, 5, 20, 2000)); // same src, newer

    trail.recordPoisonAccess(1);
    const std::vector<PruneAuditRecord> recs = trail.records();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].poisonHits, 0u);
    EXPECT_EQ(recs[1].poisonHits, 1u); // attributed to the newest

    const PruneAuditSummary s = trail.summary();
    EXPECT_EQ(s.bytesMispredicted, 2000u); // only the hit decision's bytes
    EXPECT_DOUBLE_EQ(s.accuracy, 1.0 - 2000.0 / 3000.0);
}

TEST(AuditTrailTest, UntypedFallbackForMostStalePrunes)
{
    PruneAuditTrail trail;
    PruneAuditRecord untyped;
    untyped.epoch = 5;
    untyped.hasType = false;
    untyped.typeName = "<staleness level 3>";
    untyped.staleLevel = 3;
    untyped.refsPoisoned = 7;
    untyped.bytesReclaimed = 0; // MostStale reclaims untracked bytes
    trail.recordPrune(untyped);

    // The MostStale predictor poisons edges of many source classes;
    // any class that matches no typed decision falls back to the
    // newest untyped one instead of being dropped as unattributed.
    trail.recordPoisonAccess(77);
    const std::vector<PruneAuditRecord> recs = trail.records();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].poisonHits, 1u);
    EXPECT_EQ(trail.summary().unattributedHits, 0u);
    EXPECT_TRUE(trail.summary().graded);
}

// ---------------------------------------------------------------------------
// Null-engine no-ops (a bare Heap has no engine)

TEST(TelemetryTest, NullEngineHelpersAreNoOps)
{
    telInstant(nullptr, TracePhase::PoisonAccess, 1, 2);
    {
        TelemetrySpan span(nullptr, TracePhase::OffloadWrite);
        span.setArgs(3, 4);
    }
    // Nothing to assert beyond "did not crash": the helpers accept a
    // null engine.
    SUCCEED();
}

// ---------------------------------------------------------------------------
// Runtime integration: a real collection produces GC-track spans.

TEST(TelemetryIntegrationTest, CollectionEmitsGcSpans)
{
    RuntimeConfig cfg;
    cfg.heapBytes = 8u << 20;
    Runtime rt(cfg);
    const class_id_t cls = rt.defineClass("test.Node", 1, 32);
    {
        MutatorScope mutator(rt.threads());
        HandleScope scope(rt.roots());
        Handle keep = scope.handle(nullptr);
        for (int i = 0; i < 1000; ++i) {
            Object *obj = rt.allocate(cls);
            rt.writeRef(obj, 0, keep.get());
            keep.set(obj);
        }
        rt.collectNow();
    }

    // GC spans carry the gcTrack routing flag (the exporter maps them
    // to tid 0); the stored tid is still the collecting thread's track.
    // The flip is the whole sweep, so each pause has one gc.sweep.
    std::uint64_t pauses = 0, marks = 0, sweeps = 0;
    for (const DrainedEvent &de : rt.telemetry()->events()) {
        if (de.ev.kind != EventKind::Span || !de.ev.gcTrack)
            continue;
        switch (de.ev.phase) {
          case TracePhase::GcPause: ++pauses; break;
          case TracePhase::GcMark: ++marks; break;
          case TracePhase::GcSweep: ++sweeps; break;
          default: break;
        }
    }
    const std::uint64_t collections = rt.gcStats().collections;
    ASSERT_GE(collections, 1u);
    EXPECT_EQ(pauses, collections);
    EXPECT_EQ(marks, collections);
    EXPECT_EQ(sweeps, collections);
}

} // namespace
} // namespace lp

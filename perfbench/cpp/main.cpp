/**
 * @file
 * lpbench: one timed run of one workload.
 *
 *   lpbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 runs the workload untraced for S seconds and reports the
 * end-to-end metrics. --trace 1 runs it untraced for S/2 seconds, then
 * traced for S/2 seconds on a fresh runtime with the same seed, and
 * reports the per-layer metrics of the traced half, the tracing
 * overhead (the gap between the halves) and the read-barrier
 * calibration. Correctness checks run after each timed region.
 *
 * The last line of standard output is one JSON object holding the
 * provenance, every metric with its unit and sample count (or the
 * reason it was omitted), and every check. perfbench/run.py builds
 * this program, runs it, and turns that object into the report.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/logging.h"
#include "workloads.h"

#ifndef LPBENCH_BUILD_TYPE
#define LPBENCH_BUILD_TYPE "unknown"
#endif

using namespace lpbench;

namespace {

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::uint64_t n = 0;
    std::string omitted; //!< non-empty: no value, and why
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/**
 * Nearest-rank percentile @p q of @p v scaled by @p scale, or the
 * reason it is omitted: it needs at least ten samples beyond it.
 */
Metric
percentile(const std::string &name, std::vector<std::uint64_t> v, double q,
           double scale, const std::string &unit, std::uint64_t n)
{
    Metric m{name, 0, unit, n, ""};
    const auto need = static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
    if (v.size() < need) {
        m.omitted = "needs >= " + std::to_string(need) +
                    " samples for 10 beyond the percentile, have " +
                    std::to_string(v.size());
        return m;
    }
    const std::size_t idx =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                     v.end());
    m.value = static_cast<double>(v[idx]) * scale;
    return m;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

void
endToEnd(const PhaseResult &r, std::vector<Metric> &out)
{
    out.push_back({"setup_s", median(r.setupSeconds), "s", r.setupSeconds.size(), ""});
    out.push_back({"req_per_s", ratio(static_cast<double>(r.completed), r.wallSeconds),
                   "1/s", r.completed, ""});
    out.push_back(percentile("req_p50_us", r.latency.samples(), 0.50, 1e-3, "us",
                             r.latency.seen()));
    out.push_back(percentile("req_p99_us", r.latency.samples(), 0.99, 1e-3, "us",
                             r.latency.seen()));
    out.push_back(percentile("pause_p50_ms", r.pauseNs, 0.50, 1e-6, "ms",
                             r.pauseNs.size()));
    out.push_back(percentile("pause_p99_ms", r.pauseNs, 0.99, 1e-6, "ms",
                             r.pauseNs.size()));
    out.push_back({"fail_frac",
                   ratio(static_cast<double>(r.attempted - r.completed),
                         static_cast<double>(r.attempted)),
                   "frac", r.attempted, ""});
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out.push_back({"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB", 1, ""});
}

/** Median cost of one steady_clock read, subtracted from sampled spans. */
double
clockOverheadNs()
{
    std::vector<double> d;
    for (int i = 0; i < 1001; ++i) {
        const std::uint64_t a = nowNs();
        const std::uint64_t b = nowNs();
        d.push_back(static_cast<double>(b - a));
    }
    return median(d);
}

void
perLayer(const PhaseResult &u, const PhaseResult &t, double barrier_x,
         double clock_ns, std::vector<Metric> &out)
{
    const auto tally = [&](SpanKind k) {
        return t.tallies[static_cast<std::size_t>(k)];
    };
    const auto mean_ns = [&](SpanKind k) {
        const OpTally o = tally(k);
        return o.timed ? std::max(0.0, static_cast<double>(o.timedNs) /
                                           static_cast<double>(o.timed) -
                                       clock_ns)
                       : 0.0;
    };
    const LayerTotals &l = t.layers;
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double wall_ns = t.wallSeconds * 1e9;

    out.push_back({"vm.read_calls", d(tally(SpanKind::Read).calls), "count",
                   tally(SpanKind::Read).calls, ""});
    out.push_back({"vm.read_ns", mean_ns(SpanKind::Read), "ns",
                   tally(SpanKind::Read).timed, ""});
    out.push_back({"vm.barrier_cold_frac", ratio(d(l.coldHits), d(l.reads)), "frac",
                   l.reads, ""});
    out.push_back({"vm.write_ns", mean_ns(SpanKind::Write), "ns",
                   tally(SpanKind::Write).timed, ""});
    out.push_back({"vm.alloc_calls", d(tally(SpanKind::Alloc).calls), "count",
                   tally(SpanKind::Alloc).calls, ""});
    out.push_back({"vm.alloc_ns", mean_ns(SpanKind::Alloc), "ns",
                   tally(SpanKind::Alloc).timed, ""});
    Metric p99 = percentile("vm.alloc_p99_ns", t.allocNs.samples(), 0.99, 1.0, "ns",
                            t.allocNs.seen());
    if (p99.omitted.empty())
        p99.value = std::max(0.0, p99.value - clock_ns);
    out.push_back(p99);
    out.push_back({"heap.bytes_allocated", d(l.bytesAllocated), "bytes", l.allocations, ""});
    out.push_back({"heap.bytes_freed", d(l.bytesFreed), "bytes", l.allocations, ""});
    out.push_back({"heap.help_frac", ratio(d(l.failedAllocations), d(l.allocations)),
                   "frac", l.allocations, ""});
    out.push_back({"heap.fullness_end", ratio(l.fullnessEndSum, d(l.runtimes)), "frac",
                   l.runtimes, ""});
    out.push_back({"threads.safepoint_wait_ms_total", d(l.safepointWaitNs) * 1e-6, "ms",
                   l.collections, ""});
    out.push_back({"threads.safepoint_wait_max_ms", d(l.safepointWaitMaxNs) * 1e-6, "ms",
                   l.collections, ""});
    out.push_back({"gc.collections", d(l.collections), "count", l.collections, ""});
    out.push_back({"gc.pause_ms_total", d(l.pauseNs) * 1e-6, "ms", l.collections, ""});
    out.push_back({"gc.pause_share", ratio(d(l.pauseNs), wall_ns), "frac",
                   l.collections, ""});
    out.push_back({"gc.mark_ms_total", d(l.markNs) * 1e-6, "ms", l.collections, ""});
    out.push_back({"gc.mark_share", ratio(d(l.markNs), d(l.pauseNs)), "frac",
                   l.collections, ""});
    out.push_back({"gc.objects_marked", d(l.objectsMarked), "count", l.collections, ""});
    out.push_back({"gc.mark_ns_per_object", ratio(d(l.markNs), d(l.objectsMarked)), "ns",
                   l.objectsMarked, ""});
    out.push_back({"gc.sweep_ms_total", d(l.sweepNs) * 1e-6, "ms", l.collections, ""});
    const std::uint64_t parts = l.markNs + l.sweepNs + l.verifyNs;
    out.push_back({"gc.pause_other_ms",
                   d(l.pauseNs > parts ? l.pauseNs - parts : 0) * 1e-6, "ms",
                   l.collections, ""});
    out.push_back({"core.select_gcs", d(l.selectGcs), "count", l.collections, ""});
    out.push_back({"core.prune_gcs", d(l.pruneGcs), "count", l.collections, ""});
    out.push_back({"core.candidates_queued", d(l.candidatesQueued), "count",
                   l.selectGcs, ""});
    out.push_back({"core.stale_bytes_sized", d(l.staleBytesSized), "bytes",
                   l.selectGcs, ""});
    out.push_back({"core.refs_poisoned", d(l.refsPoisoned), "count", l.pruneGcs, ""});
    out.push_back({"core.edge_types", d(l.edgeTypes), "count", l.runtimes, ""});
    out.push_back({"core.prune_accuracy",
                   l.auditBytesReclaimed
                       ? 1.0 - ratio(d(l.auditBytesMispredicted), d(l.auditBytesReclaimed))
                       : 1.0,
                   "frac", l.pruneGcs, ""});
    out.push_back({"collections.map_put_ns", mean_ns(SpanKind::MapPut), "ns",
                   tally(SpanKind::MapPut).timed, ""});
    out.push_back({"vm.barrier_overhead_x", barrier_x, "x", kBarrierReps, ""});
    const double traced_rps = ratio(d(t.completed), t.wallSeconds);
    const double untraced_rps = ratio(d(u.completed), u.wallSeconds);
    out.push_back({"bench.trace_overhead_frac", 1.0 - ratio(traced_rps, untraced_rps),
                   "frac", t.completed, ""});
}

void
printMetrics(std::ostream &os, const std::vector<Metric> &metrics)
{
    os << "[";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        os << (i ? ", " : "") << "{\"name\": " << jsonString(m.name)
           << ", \"value\": " << (m.omitted.empty() ? jsonNumber(m.value) : "null")
           << ", \"unit\": " << jsonString(m.unit) << ", \"n\": " << m.n;
        if (!m.omitted.empty())
            os << ", \"omitted\": " << jsonString(m.omitted);
        os << "}";
    }
    os << "]";
}

void
printChecks(std::ostream &os, const std::vector<std::pair<std::string, Check>> &checks)
{
    os << "[";
    for (std::size_t i = 0; i < checks.size(); ++i) {
        const auto &[phase, c] = checks[i];
        os << (i ? ", " : "") << "{\"phase\": " << jsonString(phase)
           << ", \"name\": " << jsonString(c.name)
           << ", \"ok\": " << (c.ok ? "true" : "false")
           << ", \"detail\": " << jsonString(c.detail) << "}";
    }
    os << "]";
}

int
usage()
{
    std::cerr << "usage: lpbench --workload NAME --seed N --seconds S --trace 0|1\n"
                 "workloads:";
    for (const std::string &w : workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double secs = 10.0;
    int trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *val = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            workload = val;
        } else if (flag == "--seed") {
            seed = std::strtoull(val, &end, 10);
        } else if (flag == "--seconds") {
            secs = std::strtod(val, &end);
        } else if (flag == "--trace") {
            trace = static_cast<int>(std::strtol(val, &end, 10));
        } else {
            return usage();
        }
        if (end && *end != '\0')
            return usage();
    }
    if (argc % 2 == 0 || workload.empty() || !(secs > 0 && secs <= 600) ||
        (trace != 0 && trace != 1) ||
        std::find(workloadNames().begin(), workloadNames().end(), workload) ==
            workloadNames().end())
        return usage();

    lp::setLogLevel(lp::LogLevel::Silent);
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, Check>> checks;
    std::uint64_t attempted = 0, failed = 0;
    std::ostringstream spans;
    const auto keep = [&](const char *phase, const PhaseResult &r) {
        for (const Check &c : r.checks)
            checks.emplace_back(phase, c);
        attempted += r.attempted;
        failed += r.unexpectedErrors;
    };

    if (trace == 0) {
        PhaseResult r;
        runPhase(workload, {seed, secs, false}, r);
        keep("untraced", r);
        endToEnd(r, metrics);
    } else {
        PhaseResult u, t;
        runPhase(workload, {seed, secs / 2, false}, u);
        keep("untraced", u);
        const double clock_ns = clockOverheadNs();
        runPhase(workload, {seed, secs / 2, true}, t);
        keep("traced", t);
        const double barrier_x = barrierOverheadX(seed);
        perLayer(u, t, barrier_x, clock_ns, metrics);

        spans << "{\"kept\": " << t.spansKept << ", \"dropped\": " << t.spansDropped
              << ", \"clock_overhead_ns\": " << jsonNumber(clock_ns)
              << ", \"request_self_frac\": "
              << jsonNumber(ratio(static_cast<double>(t.selfNsInSpans),
                                  static_cast<double>(t.requestNsInSpans)))
              << ", \"kinds\": [";
        for (std::size_t k = 0; k < kSpanKinds; ++k) {
            const OpTally &o = t.tallies[k];
            spans << (k ? ", " : "") << "{\"kind\": "
                  << jsonString(spanKindName(static_cast<SpanKind>(k)))
                  << ", \"calls\": " << o.calls << ", \"timed\": " << o.timed
                  << ", \"timed_ms\": "
                  << jsonNumber(static_cast<double>(o.timedNs) * 1e-6)
                  << ", \"sample_period\": " << kSamplePeriod[k] << "}";
        }
        spans << "]}";
    }

    cpu_set_t set;
    CPU_ZERO(&set);
    const int affinity =
        sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
    const ThreadPlan plan = threadPlan(workload);
    std::ostringstream out;
    out << "{\"provenance\": {\"workload\": " << jsonString(workload)
        << ", \"seed\": " << seed << ", \"seconds\": " << jsonNumber(secs)
        << ", \"trace\": " << trace
        << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
        << ", \"cpus_allowed\": " << affinity
        << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ", \"build_type\": " << jsonString(LPBENCH_BUILD_TYPE)
        << ", \"lp_telemetry\": " << (LP_TELEMETRY_ENABLED ? "true" : "false")
        << ", \"compiler\": " << jsonString(__VERSION__)
        << ", \"mutator_threads\": " << plan.mutators
        << ", \"gc_threads\": " << plan.gcThreads << "}, \"metrics\": ";
    printMetrics(out, metrics);
    out << ", \"checks\": ";
    printChecks(out, checks);
    out << ", \"attempted\": " << attempted << ", \"failed\": " << failed;
    if (trace)
        out << ", \"spans\": " << spans.str();
    out << "}";
    std::cout << out.str() << std::endl;
    return 0;
}

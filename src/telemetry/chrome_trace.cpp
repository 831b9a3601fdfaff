#include "telemetry/chrome_trace.h"

#include <algorithm>
#include <ostream>

#include "telemetry/telemetry.h"

namespace lp {

namespace {

/** Minimal JSON string escaping (names are internal identifiers). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Microsecond timestamp with sub-microsecond fraction preserved. */
void
writeMicros(std::ostream &os, std::uint64_t nanos)
{
    os << (nanos / 1000) << "." << (nanos % 1000) / 100;
}

} // namespace

void
writeChromeTrace(
    std::ostream &os, const std::vector<DrainedEvent> &events,
    const std::vector<std::pair<std::uint32_t, std::string>> &thread_names,
    std::uint64_t dropped_events)
{
    // Perfetto does not require sorted input, but sorted output diffs
    // cleanly and makes the validator's job trivial.
    std::vector<const DrainedEvent *> sorted;
    sorted.reserve(events.size());
    for (const DrainedEvent &ev : events)
        sorted.push_back(&ev);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const DrainedEvent *a, const DrainedEvent *b) {
                         return a->ev.tsNanos < b->ev.tsNanos;
                     });

    os << "{\"otherData\": {\"dropped_events\": " << dropped_events
       << "},\n\"traceEvents\": [\n";
    os << " {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"args\": {\"name\": \"leakpruning\"}}";
    os << ",\n {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": "
       << Telemetry::kGcTrackId << ", \"args\": {\"name\": \"GC\"}}";
    for (const auto &[tid, name] : thread_names) {
        os << ",\n {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
              "\"tid\": "
           << tid << ", \"args\": {\"name\": \"" << jsonEscape(name)
           << "\"}}";
    }

    for (const DrainedEvent *dev : sorted) {
        const TraceEvent &ev = dev->ev;
        const std::uint32_t tid =
            ev.gcTrack ? Telemetry::kGcTrackId : dev->tid;
        os << ",\n {\"name\": \"" << tracePhaseName(ev.phase)
           << "\", \"pid\": 1, \"tid\": " << tid << ", \"ts\": ";
        writeMicros(os, ev.tsNanos);
        if (ev.kind == EventKind::Span) {
            os << ", \"ph\": \"X\", \"dur\": ";
            writeMicros(os, ev.durNanos);
        } else {
            os << ", \"ph\": \"i\", \"s\": \"t\"";
        }
        os << ", \"args\": {\"n\": " << ev.a32 << ", \"bytes\": " << ev.a64
           << "}}";
    }
    os << "\n]}\n";
    os.flush();
}

} // namespace lp

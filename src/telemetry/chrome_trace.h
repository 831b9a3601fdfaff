/**
 * @file
 * Chrome trace-event JSON exporter.
 *
 * Writes the telemetry event buffer in the Trace Event Format that
 * Perfetto (ui.perfetto.dev) and chrome://tracing load directly: a
 * {"traceEvents": [...]} object containing thread-name metadata, one
 * "X" (complete) event per span, and one "i" (instant) event per
 * point record. Mutator events keep their own track; events flagged
 * gcTrack land on the synthetic "GC" track (tid 0) regardless of
 * which thread emitted them, so GC pauses read as one timeline even
 * though any mutator can be the collecting thread. The top-level
 * "otherData" object records how many events the capped buffer
 * dropped, so a truncated trace says so (tools/check_trace.py fails
 * on a nonzero count).
 */

#ifndef LP_TEL_CHROME_TRACE_H
#define LP_TEL_CHROME_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace lp {

struct DrainedEvent;

/**
 * @param os destination stream.
 * @param events buffered events (any order; sorted by timestamp here).
 * @param thread_names (tid, name) pairs for track naming.
 * @param dropped_events events refused at the buffer's cap.
 */
void writeChromeTrace(
    std::ostream &os, const std::vector<DrainedEvent> &events,
    const std::vector<std::pair<std::uint32_t, std::string>> &thread_names,
    std::uint64_t dropped_events);

} // namespace lp

#endif // LP_TEL_CHROME_TRACE_H

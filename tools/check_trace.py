#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON produced by the telemetry layer.

Loads the file exactly the way Perfetto / chrome://tracing would (it
must be one well-formed JSON object with a "traceEvents" array) and
checks the structural properties the telemetry subsystem promises:

  - every event is a metadata ("M"), complete-span ("X"), or instant
    ("i") record with the fields that phase requires (ts everywhere,
    dur on spans, scope on instants);
  - a named GC track exists (tid 0) and carries the stop-the-world
    phase spans (gc.pause, gc.mark, gc.sweep) for at least one
    collection, with each phase nested inside its pause;
  - every gc.pause holds exactly one cache.retire_all span: the
    collector retires the thread caches once, first, in each pause;
  - at least --min-mutators named mutator tracks emitted events of
    their own (the multi-threaded trace criterion);
  - with --require-prune, at least one prune.decision instant is on
    the GC track (the run was expected to reach the PRUNE state);
  - the exporter dropped no event: "otherData"."dropped_events" is
    present and zero. The telemetry buffer is capped, so a long run
    keeps only its first events; such a trace is truncated and fails.

Exit codes: 0 valid, 1 validation failure, 2 usage/IO error. Used by
CI on a trace from `run_leak --trace` (see ctest -R trace_).
"""

import argparse
import bisect
import json
import sys
from collections import defaultdict

GC_TID = 0
GC_PHASES = {"gc.pause", "gc.mark", "gc.sweep"}
CACHE_RETIRE = "cache.retire_all"


def fail(msg: str) -> None:
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--min-mutators", type=int, default=2,
                        help="mutator tracks that must have events")
    parser.add_argument("--require-prune", action="store_true",
                        help="require at least one prune.decision event")
    args = parser.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as f:
            root = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_trace: cannot load {args.trace}: {err}",
              file=sys.stderr)
        sys.exit(2)

    events = root.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("no traceEvents array")
    dropped = (root.get("otherData") or {}).get("dropped_events")
    if not isinstance(dropped, int):
        fail("no otherData.dropped_events count")
    if dropped:
        fail(f"trace is truncated: the telemetry buffer dropped {dropped} "
             f"event(s)")

    track_names = {}
    events_per_tid = defaultdict(int)
    gc_spans = defaultdict(list)  # name -> [(ts, ts+dur)]
    prune_decisions = 0

    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"event {i} is not an object")
        ph = ev.get("ph")
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            fail(f"event {i} has no name")
        if ph == "M":
            if name == "thread_name":
                track_names[ev["tid"]] = ev["args"]["name"]
            continue
        if ph not in ("X", "i"):
            fail(f"event {i} ({name}) has unexpected ph {ph!r}")
        if not isinstance(ev.get("ts"), (int, float)):
            fail(f"event {i} ({name}) has no numeric ts")
        tid = ev.get("tid")
        if not isinstance(tid, int):
            fail(f"event {i} ({name}) has no integer tid")
        events_per_tid[tid] += 1
        if ph == "X":
            if not isinstance(ev.get("dur"), (int, float)):
                fail(f"span {i} ({name}) has no numeric dur")
            if tid == GC_TID and (name in GC_PHASES or name == CACHE_RETIRE):
                gc_spans[name].append((ev["ts"], ev["ts"] + ev["dur"]))
        else:
            if ev.get("s") != "t":
                fail(f"instant {i} ({name}) is not thread-scoped")
            if tid == GC_TID and name == "prune.decision":
                prune_decisions += 1

    if track_names.get(GC_TID) != "GC":
        fail("no named GC track (tid 0)")
    missing = GC_PHASES - set(gc_spans)
    if missing:
        fail(f"GC track lacks phase spans: {', '.join(sorted(missing))}")

    # Each mark/sweep span must fall inside some pause span: phases are
    # sub-intervals of the stop-the-world they belong to. ts/dur carry
    # 0.1 us resolution, so endpoint sums can disagree by up to 0.2 us.
    def inside(span, pause):
        return pause[0] <= span[0] and span[1] <= pause[1] + 0.3

    pauses = sorted(gc_spans["gc.pause"])
    for phase in ("gc.mark", "gc.sweep"):
        for span in gc_spans[phase]:
            if not any(inside(span, pause) for pause in pauses):
                fail(f"{phase} span [{span[0]}, {span[1]}] outside every "
                     f"gc.pause")
    # Runtime::verifyHeap also retires the caches, in a pause of its
    # own that is no collection, so only the count per gc.pause holds.
    retires = sorted(gc_spans[CACHE_RETIRE])
    retire_starts = [start for (start, _) in retires]
    for pause in pauses:
        first = bisect.bisect_left(retire_starts, pause[0])
        last = bisect.bisect_right(retire_starts, pause[1] + 0.3)
        held = sum(1 for span in retires[first:last] if inside(span, pause))
        if held != 1:
            fail(f"gc.pause [{pause[0]}, {pause[1]}] holds {held} "
                 f"{CACHE_RETIRE} span(s), not 1")

    mutator_tids = [tid for tid, n in events_per_tid.items()
                    if tid != GC_TID and n > 0]
    unnamed = [tid for tid in mutator_tids if tid not in track_names]
    if unnamed:
        fail(f"mutator tracks without thread_name metadata: {unnamed}")
    if len(mutator_tids) < args.min_mutators:
        fail(f"only {len(mutator_tids)} mutator track(s) with events, "
             f"need {args.min_mutators}")

    if args.require_prune and prune_decisions == 0:
        fail("no prune.decision events on the GC track")

    print(f"check_trace: OK: {sum(events_per_tid.values())} events, "
          f"{len(mutator_tids)} mutator track(s), "
          f"{len(pauses)} collection(s), "
          f"{prune_decisions} prune decision(s)")


if __name__ == "__main__":
    main()

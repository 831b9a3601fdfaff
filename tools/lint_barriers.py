#!/usr/bin/env python3
"""Barrier-bypass lint: find raw tagged-reference access outside the
sanctioned layers.

Leak pruning's whole correctness story depends on every reference load
going through the conditional read barrier (Runtime::readRef): the
barrier is what notices stale-check tags, throws on poisoned (pruned)
references, and keeps the edge table honest. Code that touches
reference words directly — the tag-bit constants, the ref_t
tag-manipulation primitives from object/ref.h, or raw slot addresses —
bypasses all of that, so raw access is only legal in the layers that
*implement* the machinery:

  - src/object/        the reference-word representation itself
  - src/gc/            the tracer tags/poisons references during STW
  - src/vm/runtime.*   the read barrier and the write path
  - src/vm/handles.*   rooted slots store clean refs directly
  - src/vm/disk_offload.*  stub encoding/faulting for the baseline
  - src/analysis/heap_verifier.cpp  the invariant checker must look
                       at raw bits by definition

Everything else (collections, apps, harness, core policy code, and
notably src/telemetry/ — instrumentation observes the heap, it never
touches reference words) must go through the Runtime API. This lint
enforces that statically and runs as a CTest (`ctest -R lint_barriers`).

Exit codes: 0 clean, 1 violations found, 2 usage/internal error.

A second check guards the mutator fast paths themselves: the bodies
of the functions in FAST_PATHS, which run on every reference load or
store, every small-object allocation, every handle scope and every
object the collector marks, must contain no locked read-modify-write
(fetch_add, fetch_sub, fetch_or, fetch_and, exchange,
compare_exchange_*). One shared
fetch_add per load once cost more than the barrier's tag test; the
barrier counters are per-thread for that reason, and a thread cache
carves from a chunk it owns. The mark loop (the claim, the chunk byte
tally, the edge rule with its edge-table probe) runs on the one
collector thread with the world stopped, so its header and counter
writes are plain stores. Atomic operations belong on the out-of-line
cold and refill paths, and the read barrier's cold path keeps only
its slot CAS: its stale-counter reset (Object::clearStaleCounter) is
listed so a locked update of the header cannot creep back.

`--self-test` proves the scanner actually detects offenders by running
it over tests/lint_fixtures/, which contains a deliberate raw
reference load and locked operations in a read barrier, an
out-of-line function and a destructor; the self-test passes iff all
of them, and none of the clean companions, are flagged.
"""

import argparse
import re
import sys
from pathlib import Path

# Tokens that constitute raw tagged-reference access. Word-bounded so
# e.g. "prefTargets" would not match.
RAW_TOKENS = [
    "kStaleCheckBit",
    "kPoisonBit",
    "kTagMask",
    "makeRef",
    "refTarget",
    "refIsNull",
    "refHasStaleCheck",
    "refIsPoisoned",
    "refWithStaleCheck",
    "refPoisoned",
    "refClean",
    "refSlotAddr",
]
TOKEN_RE = re.compile(r"\b(" + "|".join(RAW_TOKENS) + r")\b")

# Paths (relative to the repo root, '/'-separated) where raw access is
# legal. Directory entries end with '/'. Keep this list tight: adding
# to it is a design decision, not a convenience.
ALLOWLIST = [
    "src/object/",
    "src/gc/",
    "src/vm/runtime.h",
    "src/vm/runtime.cpp",
    "src/vm/handles.h",
    "src/vm/handles.cpp",
    "src/vm/disk_offload.h",
    "src/vm/disk_offload.cpp",
    "src/analysis/heap_verifier.cpp",
]

SOURCE_SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}

# (file, function) pairs whose bodies run on every reference load or
# store (including the inline helpers the read barrier calls and its
# cold path's header store), every small-object allocation, or every
# object or edge the mark loop visits. A
# listed function that can no longer be found is itself a violation,
# so a rename cannot silently retire the check.
FAST_PATHS = [
    ("src/vm/runtime.h", "readRef"),
    ("src/vm/runtime.h", "writeRef"),
    ("src/threads/safepoint.h", "pollSafepoint"),
    ("src/threads/safepoint.h", "myBarrierStats"),
    ("src/threads/safepoint.h", "current"),
    ("src/threads/safepoint.h", "countOwned"),
    ("src/threads/safepoint.h", "push"),
    ("src/vm/handles.h", "HandleScope"),
    ("src/vm/handles.h", "~HandleScope"),
    ("src/vm/handles.h", "handle"),
    ("src/object/class_info.h", "info"),
    ("src/heap/thread_cache.h", "allocateFast"),
    ("src/heap/thread_cache.h", "noteAllocated"),
    ("src/heap/thread_cache.cpp", "carve"),
    ("src/heap/heap.h", "tryMark"),
    ("src/object/object.h", "tickStaleCounter"),
    ("src/object/object.h", "staleCounterAtStart"),
    ("src/object/object.h", "clearStaleCounter"),
    ("src/gc/tracer.cpp", "onMarked"),
    ("src/gc/tracer.cpp", "shade"),
    ("src/gc/tracer.cpp", "ruleMatches"),
    ("src/gc/edge_table.cpp", "maxStaleUse"),
    ("src/gc/tracer.cpp", "scanObject"),
    ("src/gc/tracer.cpp", "drain"),
    ("src/gc/tracer.cpp", "traceFromRoots"),
    ("src/gc/tracer.cpp", "traceSubgraph"),
]
LOCKED_RMW_RE = re.compile(
    r"\b(fetch_add|fetch_sub|fetch_or|fetch_and|exchange|compare_exchange\w*)\b")


def is_allowed(rel_path: str) -> bool:
    for entry in ALLOWLIST:
        if entry.endswith("/"):
            if rel_path.startswith(entry):
                return True
        elif rel_path == entry:
            return True
    return False


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line
    structure so reported line numbers stay correct."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def scan_file(path: Path, rel: str):
    """Yield (rel, line_number, token, line_text) violations."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        print(f"lint_barriers: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    stripped = strip_comments_and_strings(text)
    originals = text.splitlines()
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        for match in TOKEN_RE.finditer(line):
            original = originals[lineno - 1].strip() if lineno <= len(originals) else ""
            yield (rel, lineno, match.group(1), original)


def scan_tree(root: Path, subdir: str, skip_allowlist: bool):
    violations = []
    base = root / subdir
    if not base.is_dir():
        print(f"lint_barriers: no such directory: {base}", file=sys.stderr)
        sys.exit(2)
    for path in sorted(base.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        if not skip_allowlist and is_allowed(rel):
            continue
        violations.extend(scan_file(path, rel))
    return violations


def matching_close(text: str, start: int, open_ch: str, close_ch: str) -> int:
    """Index of the bracket closing the one at text[start], or -1."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def function_body(stripped: str, name: str):
    """(start, end) offsets of the first definition body of @p name in
    comment-stripped source, or None. A definition is `name(...)`,
    optional const/noexcept/override qualifiers, then `{`. A name
    that is not preceded by `~` names a constructor, not the
    destructor: spell that `~Class`."""
    for match in re.finditer(r"(?<![\w~])" + re.escape(name) + r"\s*\(",
                             stripped):
        close = matching_close(stripped, match.end() - 1, "(", ")")
        if close < 0:
            continue
        rest = re.match(r"(\s|\bconst\b|\bnoexcept\b|\boverride\b)*",
                        stripped[close + 1:])
        brace = close + 1 + rest.end()
        if brace < len(stripped) and stripped[brace] == "{":
            end = matching_close(stripped, brace, "{", "}")
            if end > 0:
                return brace, end
    return None


def scan_fast_paths(root: Path, fast_paths):
    """Yield (rel, line_number, token, line_text) for each locked
    read-modify-write in a fast-path body, or a missing definition."""
    for rel, name in fast_paths:
        path = root / rel
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as err:
            print(f"lint_barriers: cannot read {path}: {err}", file=sys.stderr)
            sys.exit(2)
        stripped = strip_comments_and_strings(text)
        body = function_body(stripped, name)
        if body is None:
            yield (rel, 0, "missing", f"fast path {name}() not found")
            continue
        originals = text.splitlines()
        for match in LOCKED_RMW_RE.finditer(stripped, body[0], body[1]):
            lineno = stripped.count("\n", 0, match.start()) + 1
            yield (rel, lineno, match.group(1),
                   f"{name}(): {originals[lineno - 1].strip()}")


def self_test(root: Path) -> int:
    """The lint must flag the deliberate offender in the fixture dir,
    and must NOT flag its comment-only companion."""
    fixtures = root / "tests" / "lint_fixtures"
    violations = scan_tree(root, "tests/lint_fixtures", skip_allowlist=True)
    flagged = {v[0] for v in violations}
    offender = "tests/lint_fixtures/raw_ref_load.cpp"
    clean = "tests/lint_fixtures/commented_ref_use.cpp"
    ok = True
    if offender not in flagged:
        print(f"self-test FAIL: {offender} was not flagged", file=sys.stderr)
        ok = False
    if clean in flagged:
        print(f"self-test FAIL: {clean} (comments/strings only) was flagged",
              file=sys.stderr)
        ok = False
    if not (fixtures / "raw_ref_load.cpp").is_file():
        print(f"self-test FAIL: fixture missing under {fixtures}",
              file=sys.stderr)
        ok = False
    # The locked operations in readRef, in the out-of-line (qualified)
    # carve definition and in the destructor must be flagged; writeRef
    # (a locked operation named only in a comment) and the constructor
    # (defined after the destructor) must not.
    locked = "tests/lint_fixtures/locked_fast_path.h"
    offenders = ("readRef", "carve", "~FixtureRuntime")
    rmw = list(scan_fast_paths(root, [(locked, "readRef"),
                                      (locked, "writeRef"),
                                      (locked, "carve"),
                                      (locked, "~FixtureRuntime"),
                                      (locked, "FixtureRuntime")]))
    for name in offenders:
        if not any(v[3].startswith(f"{name}():") for v in rmw):
            print(f"self-test FAIL: locked RMW in {locked} {name}() was not "
                  "flagged", file=sys.stderr)
            ok = False
    if any(not v[3].startswith(tuple(f"{n}():" for n in offenders))
           for v in rmw):
        print(f"self-test FAIL: {locked} writeRef() or the constructor was "
              "flagged or missing",
              file=sys.stderr)
        ok = False
    if ok:
        tokens = sorted({v[2] for v in violations})
        print(f"self-test OK: fixture flagged ({len(violations)} finding(s), "
              f"tokens: {', '.join(tokens)}); fast-path guard flagged "
              f"{len(rmw)} locked RMW(s)")
        return 0
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the scanner flags the test fixture")
    args = parser.parse_args()
    root = args.root.resolve()

    if args.self_test:
        return self_test(root)

    violations = scan_tree(root, "src", skip_allowlist=False)
    locked = list(scan_fast_paths(root, FAST_PATHS))
    if locked:
        print(f"lint_barriers: {len(locked)} locked read-modify-write(s) "
              f"on fast paths:\n")
        for rel, lineno, token, line in locked:
            print(f"  {rel}:{lineno}: [{token}] {line}")
        print("\nEvery reference load, small allocation or marked object "
              "runs these bodies. Count per thread (countOwned), use plain "
              "stores in the world-stopped mark loop, and keep atomic RMWs "
              "on the cold and refill paths.\n")
    if violations:
        print(f"lint_barriers: {len(violations)} raw tagged-reference "
              f"access(es) outside the allowlisted layers:\n")
        for rel, lineno, token, line in violations:
            print(f"  {rel}:{lineno}: [{token}] {line}")
        print("\nReference words must be accessed through Runtime::readRef/"
              "writeRef (the read barrier). If this file legitimately\n"
              "implements barrier machinery, extend ALLOWLIST in "
              "tools/lint_barriers.py — that is a design decision; say why "
              "in the PR.")
    if violations or locked:
        return 1
    print("lint_barriers: clean (allowlist: "
          f"{len(ALLOWLIST)} entries, tokens: {len(RAW_TOKENS)}, "
          f"fast paths: {len(FAST_PATHS)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Decision-digest oracle: pruning decisions must not change by accident.

`run_leak` prints `decision digest: <hex>`, an FNV-1a hash of every
prune event's (epoch, edge type, refs poisoned) and of the run's
outcome (iterations survived, out of memory or not). This script runs
every leaking workload that `run_leak --list` reports, with one
mutator, the iteration cap that DIGESTS names for it and any extra
options (`--extra`, e.g. another predictor), and compares each digest against DIGESTS. A change that only
makes the collector faster must leave every digest as it is.

DIGESTS holds one `WORKLOAD ITERS DIGEST` line per leaking workload;
`#` starts a comment. A leaking workload missing from it is an error,
so a new workload must be given a cap and a digest.

Usage:
  check_decision_digests.py RUN_LEAK DIGESTS [--extra ARGS]
      compare (exit 0 all match, 1 mismatch, 2 usage/IO error); pass
      the --extra the file was written with
  check_decision_digests.py RUN_LEAK DIGESTS --write OUT [--extra ARGS]
      run with the caps from DIGESTS (plus run_leak options ARGS, e.g.
      "--predictor most-stale") and write the digests to OUT
"""

import argparse
import re
import shlex
import subprocess
import sys
from pathlib import Path

# Far above any capped run's wall time, so a run ends by its iteration
# cap or by its own outcome and never by the clock (which would make
# the iteration count, and so the digest, depend on the host).
SECONDS_CAP = "300"

DIGEST_RE = re.compile(r"^decision digest: ([0-9a-f]{16})$", re.M)
END_RE = re.compile(r"^end:\s+(.*)$", re.M)


def leaking_workloads(run_leak):
    out = subprocess.run([run_leak, "--list"], capture_output=True, text=True,
                         check=True).stdout
    names = []
    for line in out.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) >= 2 and cells[1] == "yes":
            names.append(cells[0])
    return names


def read_digests(path):
    entries = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3 or not fields[1].isdigit():
            raise ValueError(f"{path}:{lineno}: expected WORKLOAD ITERS DIGEST")
        entries[fields[0]] = (int(fields[1]), fields[2])
    return entries


def run_digest(run_leak, workload, iters, extra):
    cmd = [run_leak, "--workload", workload, "--iters", str(iters),
           "--seconds", SECONDS_CAP] + extra
    out = subprocess.run(cmd, capture_output=True, text=True,
                         check=True).stdout
    digest = DIGEST_RE.search(out)
    end = END_RE.search(out)
    if not digest:
        raise RuntimeError(f"{workload}: no decision digest in output")
    if end and end.group(1).startswith("time limit"):
        raise RuntimeError(f"{workload}: hit the wall-clock cap")
    return digest.group(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_leak", help="path to the run_leak binary")
    parser.add_argument("digests", type=Path, help="WORKLOAD ITERS DIGEST file")
    parser.add_argument("--write", type=Path, metavar="OUT",
                        help="write digests to OUT instead of comparing")
    parser.add_argument("--extra", default="",
                        help="extra run_leak options, one shell-quoted string")
    args = parser.parse_args()

    try:
        expected = read_digests(args.digests)
        names = leaking_workloads(args.run_leak)
    except (OSError, ValueError, subprocess.CalledProcessError) as err:
        print(f"check_decision_digests: {err}", file=sys.stderr)
        return 2
    missing = [n for n in names if n not in expected]
    if missing:
        print("check_decision_digests: no cap/digest for leaking workload(s): "
              + ", ".join(missing), file=sys.stderr)
        return 2

    extra = shlex.split(args.extra)
    rows = []
    failures = 0
    for name in names:
        iters, want = expected[name]
        try:
            got = run_digest(args.run_leak, name, iters, extra)
        except (RuntimeError, subprocess.CalledProcessError) as err:
            print(f"FAIL {name}: {err}")
            failures += 1
            continue
        rows.append(f"{name} {iters} {got}")
        if args.write:
            continue
        if got == want:
            print(f"ok   {name} --iters {iters}: {got}")
        else:
            print(f"FAIL {name} --iters {iters}: digest {got}, expected {want}")
            failures += 1

    if args.write:
        if failures:
            return 1
        args.write.write_text(
            "# WORKLOAD ITERS DIGEST, from tools/check_decision_digests.py"
            + (f" --extra '{args.extra}'" if args.extra else "") + "\n"
            + "\n".join(rows) + "\n")
        print(f"wrote {len(rows)} digests to {args.write}")
        return 0
    if failures:
        print(f"check_decision_digests: {failures} workload(s) changed their "
              "pruning decisions")
        return 1
    print(f"check_decision_digests: {len(rows)} workloads match")
    return 0


if __name__ == "__main__":
    sys.exit(main())

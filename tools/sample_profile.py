#!/usr/bin/env python3
"""Sample a command's CPU time and print where it goes.

    python3 tools/sample_profile.py --lib build/tools/liblp_sampler.so [--top N]
        [--expect REGEX] -- COMMAND [ARGS...]

Runs COMMAND with the SIGPROF sampler (tools/sampler.cpp) preloaded,
then resolves every sampled program counter with `addr2line -f -i -C`
and prints three tables, each with sample counts and shares:

  - by function: every function on the sample's inlined stack, so a
    routine inlined into its caller (Tracer::scanObject into
    Tracer::drain) still shows with all of its time;
  - by line: the innermost source line;
  - by inlined stack: innermost frame first, up to the function the
    compiler emitted.

The header gives the sample count and the tick observed (process CPU
seconds over samples: 4 ms on a 250 Hz kernel, so a 12-s single-thread
run gives about 3000 samples, not 12000). Build with debug info
(RelWithDebInfo, the default) or the lines read "??".

--expect REGEX exits 1 unless one of the top N functions matches.
Exit codes: 0 ok, 1 expectation not met, 2 usage, run or resolve
error. COMMAND's own exit status is reported but not propagated.
"""

import argparse
import collections
import os
import re
import subprocess
import sys
import tempfile


def fail(msg, code=2):
    print(f"profile: {msg}", file=sys.stderr)
    sys.exit(code)


def strip_params(name):
    """Drop top-level parameter lists: 'a::f(int)::{lambda(x)#1}' ->
    'a::f::{lambda#1}'."""
    out, depth = [], 0
    for ch in name.replace("operator()", "operator\x00"):
        if ch == "(":
            depth += 1
            continue
        if ch == ")":
            depth = max(0, depth - 1)
            continue
        if depth == 0:
            out.append(ch)
    return "".join(out).replace(" const", "").replace("\x00", "()")


def elf_is_exec(path):
    """True for a fixed-address (ET_EXEC) ELF, whose addresses are
    absolute; shared objects and PIE programs are base-relative."""
    try:
        with open(path, "rb") as f:
            head = f.read(18)
    except OSError:
        return False
    return len(head) == 18 and head[:4] == b"\x7fELF" and head[16] == 2


def read_samples(path):
    with open(path) as f:
        header = f.readline()
        m = re.match(r"# lp_sampler samples=(\d+) dropped=(\d+) "
                     r"cpu_s=([\d.]+) wall_s=([\d.]+)", header)
        if not m:
            fail(f"{path}: not a sampler file")
        meta = {"samples": int(m.group(1)), "dropped": int(m.group(2)),
                "cpu_s": float(m.group(3)), "wall_s": float(m.group(4))}
        samples = []
        for line in f:
            base, pc, module = line.rstrip("\n").split(" ", 2)
            samples.append((module, int(base, 16), int(pc, 16)))
    return meta, samples


def resolve(module, addrs):
    """Map each address in @p addrs to its inlined stack, innermost
    first: a list of (function, 'file:line')."""
    if module == "?" or not os.path.exists(module):
        return {a: [("?? (" + os.path.basename(module) + ")", "??:0")]
                for a in addrs}
    order = sorted(addrs)
    p = subprocess.run(["addr2line", "-f", "-i", "-C", "-a", "-e", module]
                       + [hex(a) for a in order],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    if p.returncode != 0:
        fail(f"addr2line failed on {module}")
    stacks, cur = {}, None
    lines = p.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            cur = int(lines[i], 16)
            stacks[cur] = []
            i += 1
            continue
        func = strip_params(lines[i])
        loc = lines[i + 1] if i + 1 < len(lines) else "??:0"
        loc = re.sub(r" \(discriminator \d+\)$", "", loc)
        if func == "??":
            func = "?? (" + os.path.basename(module) + ")"
        stacks[cur].append((func, loc))
        i += 2
    return stacks


def print_table(title, counter, total, top):
    print(f"\n== {title} ==")
    for key, n in counter.most_common(top):
        print(f"{n:7d} {100.0 * n / total:6.2f}%  {key}")


def main():
    ap = argparse.ArgumentParser(
        description="Sample a command with the SIGPROF sampler.")
    ap.add_argument("--lib", required=True, help="path to liblp_sampler.so")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--expect", help="regex one of the top functions must match")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        fail("no command given")
    lib = os.path.abspath(args.lib)
    if not os.path.isfile(lib):
        fail(f"sampler library not found: {lib}")

    with tempfile.TemporaryDirectory(prefix="lp_profile.") as tmp:
        env = dict(os.environ, LD_PRELOAD=lib, TMPDIR=tmp)
        try:
            proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        status = proc.wait()
        path = os.path.join(tmp, f"lp_sampler.{proc.pid}.txt")
        if not os.path.exists(path):
            fail(f"no samples written (exit status {status}); was the "
                 "library preloaded?")
        meta, samples = read_samples(path)

    if not samples:
        fail("no samples taken")
    by_module = collections.defaultdict(set)
    keyed = []
    for module, base, pc in samples:
        addr = pc if elf_is_exec(module) else pc - base
        by_module[module].add(addr)
        keyed.append((module, addr))
    stacks = {}
    for module, addrs in by_module.items():
        for addr, stack in resolve(module, addrs).items():
            stacks[(module, addr)] = stack

    functions, lines, chains = (collections.Counter() for _ in range(3))
    for key in keyed:
        stack = stacks.get(key) or [("??", "??:0")]
        for func in {f for f, _ in stack}:
            functions[func] += 1
        lines[f"{stack[0][1]}  ({stack[0][0]})"] += 1
        chains[" <- ".join(f for f, _ in stack)] += 1

    total = len(keyed)
    tick_ms = 1000.0 * meta["cpu_s"] / meta["samples"]
    print(f"profile: {meta['samples']} samples ({meta['dropped']} dropped) "
          f"over {meta['cpu_s']:.2f} s CPU, {meta['wall_s']:.2f} s wall; "
          f"observed tick {tick_ms:.2f} ms; command exit status {status}")
    print_table("by function (inclusive of inlined frames)", functions, total,
                args.top)
    print_table("by line (innermost)", lines, total, args.top)
    print_table("by inlined stack (innermost first)", chains, total, args.top)

    if args.expect:
        pattern = re.compile(args.expect)
        top = [f for f, _ in functions.most_common(args.top)]
        if not any(pattern.search(f) for f in top):
            print(f"\nprofile: no top-{args.top} function matches "
                  f"{args.expect!r}", file=sys.stderr)
            return 1
        print(f"\nprofile: a top-{args.top} function matches {args.expect!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Bench-regression gate: compare a bench JSON artifact against its committed
baseline (bench/baselines/*.json).

The simulator is byte-deterministic under a fixed seed (the telemetry golden
hashes pin this cross-platform), so everything the artifact reports about
*simulated* work — request counters, percentiles, events_processed — must
match the baseline: integers exactly, floats within a small relative
tolerance.  Host wall-clock measurements (wall_seconds, events_per_sec, ...)
legitimately vary machine to machine; they are reported for trend-watching
but never gated.

Usage:
    compare_baselines.py BASELINE CURRENT [BASELINE CURRENT ...]

Exits nonzero when any gated metric drifts.  Only the Python standard
library is used.
"""

import json
import sys

# Dotted-path suffixes measured on the host wall clock: report, never gate.
WALL_CLOCK_SUFFIXES = (
    "wall_seconds",
    "events_per_sec",
    "sim_seconds_per_wall_second",
    "wall_seconds_per_sim_hour",
)

# Per-metric relative tolerances, matched on the dotted-path suffix; the
# longest matching suffix wins.  The default covers cross-platform printf
# round-trip noise; widen a specific metric here (with a comment saying why)
# rather than loosening the default.
REL_TOLERANCES = {
    "": 1e-9,  # default for every float
}


def rel_tolerance(path):
    best_suffix, best_tol = None, None
    for suffix, tol in REL_TOLERANCES.items():
        if path.endswith(suffix):
            if best_suffix is None or len(suffix) > len(best_suffix):
                best_suffix, best_tol = suffix, tol
    return best_tol


def is_wall_clock(path):
    return any(path.endswith(s) for s in WALL_CLOCK_SUFFIXES)


def match_list_items(base, cur):
    """Pairs list elements: by 'name' key when every element has one
    (order-independent), else by index."""
    if (base and cur and all(isinstance(x, dict) and "name" in x for x in base)
            and all(isinstance(x, dict) and "name" in x for x in cur)):
        base_by = {x["name"]: x for x in base}
        cur_by = {x["name"]: x for x in cur}
        for name in sorted(set(base_by) | set(cur_by)):
            yield f"[{name}]", base_by.get(name), cur_by.get(name)
        return
    for i in range(max(len(base), len(cur))):
        yield f"[{i}]", base[i] if i < len(base) else None, \
            cur[i] if i < len(cur) else None


def compare(base, cur, path, findings):
    """Appends (path, baseline, current, status) rows.  Status is 'ok',
    'wall' (reported, ungated), or 'FAIL'."""
    if base is None or cur is None:
        findings.append((path, base, cur, "FAIL"))
        return
    if isinstance(base, dict) and isinstance(cur, dict):
        for key in sorted(set(base) | set(cur)):
            sub = f"{path}.{key}" if path else key
            compare(base.get(key), cur.get(key), sub, findings)
        return
    if isinstance(base, list) and isinstance(cur, list):
        for label, b, c in match_list_items(base, cur):
            compare(b, c, path + label, findings)
        return
    if isinstance(base, bool) or isinstance(cur, bool) \
            or isinstance(base, str) or isinstance(cur, str):
        findings.append((path, base, cur, "ok" if base == cur else "FAIL"))
        return
    if isinstance(base, (int, float)) and isinstance(cur, (int, float)):
        if is_wall_clock(path):
            findings.append((path, base, cur, "wall"))
            return
        if isinstance(base, int) and isinstance(cur, int):
            findings.append((path, base, cur, "ok" if base == cur else "FAIL"))
            return
        tol = rel_tolerance(path)
        scale = max(abs(base), abs(cur), 1e-300)
        ok = abs(base - cur) <= tol * scale
        findings.append((path, base, cur, "ok" if ok else "FAIL"))
        return
    findings.append((path, base, cur, "FAIL"))  # type mismatch


def fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def compare_pair(baseline_path, current_path):
    with open(baseline_path) as f:
        base = json.load(f)
    with open(current_path) as f:
        cur = json.load(f)
    findings = []
    compare(base, cur, "", findings)

    failures = [f for f in findings if f[3] == "FAIL"]
    walls = [f for f in findings if f[3] == "wall"]
    gated = len(findings) - len(walls)

    print(f"== {current_path} vs {baseline_path}: "
          f"{gated} gated metrics, {len(walls)} wall-clock (ungated), "
          f"{len(failures)} failures ==")
    for path, b, c, _ in walls:
        drift = ""
        if isinstance(b, (int, float)) and b:
            drift = f"  ({100.0 * (c - b) / b:+.1f}%)"
        print(f"  wall  {path}: baseline {fmt(b)} -> current {fmt(c)}{drift}")
    for path, b, c, _ in failures:
        print(f"  FAIL  {path}: baseline {fmt(b)} -> current {fmt(c)}")
    return not failures


def main(argv):
    if len(argv) < 2 or len(argv) % 2 != 0:
        print(__doc__, file=sys.stderr)
        return 2
    ok = True
    for i in range(0, len(argv), 2):
        ok &= compare_pair(argv[i], argv[i + 1])
    print("bench-regression gate:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

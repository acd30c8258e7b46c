#!/usr/bin/env python3
"""Checks BENCHMARK.json against the benchmark binary's metric catalog.

usage: check_contract.py PERFBENCH_BINARY BENCHMARK_JSON

Every end-to-end and per-layer metric in BENCHMARK.json must be one the
binary emits (same name, unit and direction), and vice versa; names and
units must satisfy the result-format rules.  Exit status 0 = consistent.
"""

import json
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# The names perfbench's MakeWorkload accepts.
KNOWN_WORKLOADS = {"gemm_decode", "gemm_prefill", "fleet_steady",
                   "fleet_chaos_sweep"}


def main() -> int:
    binary, bench_json = sys.argv[1], sys.argv[2]
    catalog = json.loads(
        subprocess.run([binary, "--list-metrics"], check=True,
                       capture_output=True, text=True).stdout)
    with open(bench_json, encoding="utf-8") as f:
        bench = json.load(f)
    errors = []
    if set(bench) != {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}:
        errors.append(f"unexpected top-level keys: {sorted(bench)}")
    names = [w["name"] for w in bench["workloads"]]
    if len(names) < 2 or len(set(names)) != len(names) or \
            not set(names) <= KNOWN_WORKLOADS:
        errors.append(f"workloads: {names}")
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m for m in bench[section]}
        emitted = {m["name"]: m for m in catalog[section]}
        if set(declared) != set(emitted):
            errors.append(f"{section}: only in BENCHMARK.json "
                          f"{sorted(set(declared) - set(emitted))}, only in "
                          f"the binary {sorted(set(emitted) - set(declared))}")
        for name, m in declared.items():
            if not NAME.match(name) or not UNIT.match(m["unit"]):
                errors.append(f"bad name or unit: {name} [{m['unit']}]")
            e = emitted.get(name)
            if e and (e["unit"], e["better"]) != (m["unit"], m["better"]):
                errors.append(f"{name}: BENCHMARK.json says {m['unit']}/"
                              f"{m['better']}, binary {e['unit']}/{e['better']}")
            if section == "end_to_end" and not 0 < m.get("bound", 0) <= 0.25:
                errors.append(f"{name}: bound must be in (0, 0.25]")
    setup = {m["name"]: m for m in bench["end_to_end"]}.get("setup_s")
    if not setup or setup["unit"] != "s" or setup["better"] != "lower":
        errors.append("setup_s must be an end-to-end metric in s, lower")
    for e in errors:
        print("FAIL:", e)
    print("contract check:", "PASS" if not errors else "FAIL")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

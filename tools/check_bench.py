#!/usr/bin/env python3
"""Bench trajectory gate (the CI bench-trajectory step).

Compares the BENCH_*.json files of the current build against the ones the
previous successful CI run uploaded as its `bench-json` artifact. The
simulation is deterministic, so two runs of the same code produce identical
files; differences therefore mean the *code* changed, and the gate sorts
them into:

  FAIL (regression) — a boolean verdict flipped from true to false (an SLO
      that was met is now missed, an acceptance flag dropped), or a field
      whose name contains "checksum" changed (golden outputs must only
      change deliberately, with the reference data).
  WARN (drift)      — any other value changed, or keys appeared/vanished
      (schema evolution). Drift is reported for the PR author to eyeball,
      not blocked on: performance trajectories are allowed to move.

The strict files are held to a stronger invariant: *any* difference,
including drift, is a FAIL. They are the nine outputs that
tools/check_strict_bench.py regenerates, taken from its STRICT_BENCHES so
that one list names them. Each is a deterministic simulation, so drift
there means arbitration decisions or simulated outcomes changed, which
must never happen by accident.

Usage:
  check_bench.py --prev <dir-or-file> --curr <dir-or-file>
  check_bench.py --self-test

Directories are matched by BENCH_*.json filename; only files present on
both sides are compared (a brand-new bench has no trajectory yet). Exits
non-zero only on FAIL findings.
"""

import argparse
import json
import sys
from pathlib import Path

from check_strict_bench import STRICT_BENCHES

STRICT_FILES = frozenset(name for _, _, name in STRICT_BENCHES)

# Relative tolerance for float comparison: simulation outputs are exact, but
# printf round-tripping is not.
REL_TOL = 1e-9


def numbers_differ(a, b):
    if a == b:
        return False
    scale = max(abs(a), abs(b))
    return abs(a - b) > REL_TOL * scale


def compare_values(path, prev, curr, findings):
    """Walks two JSON values in parallel, appending (level, message)."""
    if type(prev) is not type(curr) and not (
            isinstance(prev, (int, float)) and isinstance(curr, (int, float))):
        findings.append(("WARN", f"{path}: type changed "
                         f"{type(prev).__name__} -> {type(curr).__name__}"))
        return
    if isinstance(prev, dict):
        for key in sorted(prev.keys() | curr.keys()):
            child = f"{path}.{key}"
            if key not in curr:
                findings.append(("WARN", f"{child}: key vanished"))
            elif key not in prev:
                findings.append(("WARN", f"{child}: new key"))
            else:
                compare_values(child, prev[key], curr[key], findings)
    elif isinstance(prev, list):
        if len(prev) != len(curr):
            findings.append(
                ("WARN", f"{path}: length {len(prev)} -> {len(curr)}"))
        for i, (p, c) in enumerate(zip(prev, curr)):
            compare_values(f"{path}[{i}]", p, c, findings)
    elif isinstance(prev, bool):
        if prev and not curr:
            findings.append(("FAIL", f"{path}: verdict regressed true -> false"))
        elif curr and not prev:
            findings.append(("WARN", f"{path}: verdict improved false -> true"))
    elif isinstance(prev, (int, float)):
        if numbers_differ(float(prev), float(curr)):
            leaf = path.rsplit(".", 1)[-1]
            level = "FAIL" if "checksum" in leaf.lower() else "WARN"
            findings.append((level, f"{path}: {prev} -> {curr}"))
    elif prev != curr:
        findings.append(("WARN", f"{path}: {prev!r} -> {curr!r}"))


def bench_files(root):
    root = Path(root)
    if root.is_file():
        return {root.name: root}
    return {p.name: p for p in sorted(root.glob("BENCH_*.json"))}


def compare_trees(prev_root, curr_root, strict_files=STRICT_FILES):
    prev_files = bench_files(prev_root)
    curr_files = bench_files(curr_root)
    strict = set(strict_files)
    findings = []
    if not prev_files:
        findings.append(("WARN", f"{prev_root}: no BENCH_*.json to compare"))
    for name in sorted(prev_files.keys() | curr_files.keys()):
        file_findings = []
        if name not in curr_files:
            file_findings.append(("WARN", f"{name}: bench output vanished"))
        elif name not in prev_files:
            print(f"NOTE {name}: new bench, no trajectory yet")
        else:
            try:
                prev = json.loads(prev_files[name].read_text())
                curr = json.loads(curr_files[name].read_text())
            except json.JSONDecodeError as error:
                file_findings.append(
                    ("FAIL", f"{name}: unparseable JSON ({error})"))
            else:
                compare_values(name, prev, curr, file_findings)
        if name in strict:
            # Byte-identical contract: drift in a strict file is a failure.
            file_findings = [
                ("FAIL", f"{message} [strict]" if level == "WARN" else message)
                for level, message in file_findings]
        findings.extend(file_findings)
    return findings


def report(findings):
    failures = 0
    for level, message in findings:
        print(f"{level} {message}")
        if level == "FAIL":
            failures += 1
    if failures:
        print(f"check_bench: {failures} regression(s)")
        return 1
    print(f"check_bench: OK ({len(findings)} drift warning(s))"
          if findings else "check_bench: OK (no drift)")
    return 0


def self_test():
    """Embedded cases so ctest exercises the gate without artifacts."""
    prev = {
        "bench": "x", "slo_met": True, "missed": False, "qps": 10.0,
        "count": 5, "checksum": 42,
        "configs": {"a": {"slo_met": True, "p99_ms": 12.0}},
    }

    def diff(mutate):
        curr = json.loads(json.dumps(prev))
        mutate(curr)
        findings = []
        compare_values("t", prev, curr, findings)
        return findings

    # The strict set is check_strict_bench's list, all nine files of it.
    expected_strict = {
        "BENCH_multi_tenant_arbiter.json", "BENCH_htap_slo.json",
        "BENCH_htap_slo_sweep.json", "BENCH_chaos_arbiter.json",
        "BENCH_contention_policy.json", "BENCH_arbiter_scale.json",
        "BENCH_numa_islands.json", "BENCH_oltp_contention.json",
        "BENCH_paper_claims.json",
    }
    if STRICT_FILES != expected_strict:
        print(f"self-test strict-set: expected {sorted(expected_strict)}, "
              f"got {sorted(STRICT_FILES)}")
        return 1

    # Strict escalation: identical trees stay silent, any drift fails.
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        prev_dir = Path(tmp) / "prev"
        curr_dir = Path(tmp) / "curr"
        prev_dir.mkdir()
        curr_dir.mkdir()
        (prev_dir / "BENCH_a.json").write_text(json.dumps(prev))
        (curr_dir / "BENCH_a.json").write_text(json.dumps(prev))
        got = compare_trees(prev_dir, curr_dir, strict_files=["BENCH_a.json"])
        if got:
            print(f"self-test strict-identical: expected [], got {got}")
            return 1
        drifted = dict(prev, qps=11.0)
        (curr_dir / "BENCH_a.json").write_text(json.dumps(drifted))
        got = compare_trees(prev_dir, curr_dir, strict_files=["BENCH_a.json"])
        if [(level, message.split(":")[0]) for level, message in got] != [
                ("FAIL", "BENCH_a.json.qps")]:
            print(f"self-test strict-drift: expected FAIL, got {got}")
            return 1
        got = compare_trees(prev_dir, curr_dir, strict_files=())
        if [(level, message.split(":")[0]) for level, message in got] != [
                ("WARN", "BENCH_a.json.qps")]:
            print(f"self-test non-strict-drift: expected WARN, got {got}")
            return 1

    cases = [
        # Identical trees: silent.
        (lambda c: None, []),
        # Float drift: warn, not fail.
        (lambda c: c.update(qps=11.0), [("WARN", "t.qps")]),
        # Verdict regression: fail.
        (lambda c: c["configs"]["a"].update(slo_met=False),
         [("FAIL", "t.configs.a.slo_met")]),
        # Verdict improvement: warn only.
        (lambda c: c.update(missed=True), [("WARN", "t.missed")]),
        # Checksum change: fail.
        (lambda c: c.update(checksum=43), [("FAIL", "t.checksum")]),
        # Schema evolution: warn.
        (lambda c: c.update(new_field=1), [("WARN", "t.new_field")]),
        (lambda c: c.pop("count"), [("WARN", "t.count")]),
    ]
    for i, (mutate, expected) in enumerate(cases):
        got = [(level, message.split(":")[0]) for level, message in diff(mutate)]
        if got != expected:
            print(f"self-test case {i}: expected {expected}, got {got}")
            return 1
    print("check_bench: self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prev", help="previous bench dir or file")
    parser.add_argument("--curr", help="current bench dir or file")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.prev or not args.curr:
        parser.error("--prev and --curr are required (or --self-test)")
    return report(compare_trees(args.prev, args.curr))


if __name__ == "__main__":
    sys.exit(main())

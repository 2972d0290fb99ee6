#!/usr/bin/env python3
"""Checks that the committed strict BENCH_*.json files match the code.

  python3 tools/check_strict_bench.py [--build-dir build]

The nine strict benches are deterministic simulations, so their committed
output must be exactly what the code produces. This regenerates each at its
default size into a temporary directory, running the binaries of a built
tree, and compares every file byte for byte with the copy at the repository
root. It prints one line per file and exits non-zero when a file differs or
a bench fails. numa_islands takes about a minute, paper_claims about 15 s,
the rest under 25 s together.

Registered with ctest as bench/strict_files_match, which runs only under
`ctest -C bench`; CI runs it after the smoke steps.
"""

import argparse
import filecmp
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# (binary, extra arguments, output file)
STRICT_BENCHES = [
    ("multi_tenant_arbiter", [], "BENCH_multi_tenant_arbiter.json"),
    ("htap_slo", [], "BENCH_htap_slo.json"),
    ("htap_slo", ["--sweep"], "BENCH_htap_slo_sweep.json"),
    ("chaos_arbiter", [], "BENCH_chaos_arbiter.json"),
    ("contention_policy", [], "BENCH_contention_policy.json"),
    ("arbiter_scale", [], "BENCH_arbiter_scale.json"),
    ("numa_islands", [], "BENCH_numa_islands.json"),
    ("oltp_contention", [], "BENCH_oltp_contention.json"),
    ("paper_claims", [], "BENCH_paper_claims.json"),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=str(REPO / "build"),
                        help="built tree holding the bench binaries")
    args = parser.parse_args()
    build = Path(args.build_dir).resolve()

    status = 0
    with tempfile.TemporaryDirectory(prefix="strict-bench-") as out_dir:
        for binary, extra, name in STRICT_BENCHES:
            out = Path(out_dir) / name
            proc = subprocess.run(
                [str(build / binary), *extra, "--out", str(out)],
                cwd=build, stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                print(f"{name}: {binary} exited with status {proc.returncode}")
                status = 1
            elif filecmp.cmp(out, REPO / name, shallow=False):
                print(f"{name} matches")
            else:
                print(f"{name} differs from the committed copy")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

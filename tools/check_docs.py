#!/usr/bin/env python3
"""Documentation consistency checker (the CI docs job).

Five classes of rot this catches:
  1. Relative markdown links whose target file no longer exists.
  2. Build commands quoted in the docs (`./build/<target>` and the tier-1
     cmake/ctest lines) that no longer match a real CMake target. Target
     names are derived from the filesystem exactly the way CMakeLists.txt
     derives them (bench/*.cc and examples/*.cpp -> one binary each,
     tests/**/*_test.cc -> <dir>_<file>), so the check needs no configured
     build tree.
  3. BENCH_*.json result files at the repo root that docs/FIGURES.md never
     mentions — every bench that emits a trajectory file must have a row in
     the figure map.
  4. Binaries named in docs/FIGURES.md table rows that are not real CMake
     targets.
  5. Scoped C++ names in backticks in README.md and docs/*.md
     (`exec::Experiment`, `CoreArbiter::PickCoreFor`) whose last component
     is no identifier in the code of src/, bench/, tools/ or examples/
     (comments stripped): a class, function or field the docs still name
     after it was renamed or deleted. ROADMAP.md and CHANGES.md name
     deleted code on purpose and are not checked.

Run from anywhere: `python3 tools/check_docs.py`. Exits non-zero with one
line per problem.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BUILD_CMD_RE = re.compile(r"\./build/([A-Za-z0-9_]+)")
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
SCOPED_NAME_RE = re.compile(r"[A-Za-z_]\w*(?:::[A-Za-z_]\w*)+")
IDENTIFIER_RE = re.compile(r"[A-Za-z_]\w*")
COMMENT_RE = re.compile(r"/\*.*?\*/|//[^\n]*", re.S)

# The tier-1 verify commands of ROADMAP.md; README.md must quote each.
TIER1_SNIPPETS = [
    "cmake -B build -S .",
    "cmake --build build -j",
    "ctest --output-on-failure -j",
]


def markdown_files():
    skip_dirs = {"build", ".git"}
    for path in sorted(REPO.rglob("*.md")):
        if any(part in skip_dirs for part in path.parts):
            continue
        yield path


def cmake_targets():
    """Binary names CMakeLists.txt would create, derived like the globs."""
    targets = {"elasticore"}
    for src in REPO.glob("bench/*.cc"):
        targets.add(src.stem)
    for src in REPO.glob("tools/*.cc"):
        targets.add(src.stem)
    for src in REPO.glob("examples/*.cpp"):
        targets.add(src.stem)
    for src in REPO.glob("tests/**/*_test.cc"):
        rel = src.relative_to(REPO / "tests")
        targets.add(str(rel.with_suffix("")).replace("/", "_"))
    return targets


def check_links(errors):
    for md in markdown_files():
        rel_md = md.relative_to(REPO)
        for line_no, line in enumerate(md.read_text().splitlines(), start=1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                target_path = (md.parent / target.split("#")[0]).resolve()
                if not target_path.exists():
                    errors.append(
                        f"{rel_md}:{line_no}: broken link -> {target}")


def check_build_commands(errors):
    targets = cmake_targets()
    for md in markdown_files():
        rel_md = md.relative_to(REPO)
        text = md.read_text()
        for line_no, line in enumerate(text.splitlines(), start=1):
            for name in BUILD_CMD_RE.findall(line):
                if name not in targets:
                    errors.append(
                        f"{rel_md}:{line_no}: ./build/{name} is not a "
                        f"CMake target")

    readme = (REPO / "README.md").read_text()
    for snippet in TIER1_SNIPPETS:
        if snippet not in readme:
            errors.append(
                f"README.md: missing tier-1 build command `{snippet}`")


def check_bench_json_files(errors):
    """Every BENCH_*.json at the repo root must be referenced in FIGURES.md.

    The files themselves are run artifacts (not committed), so a fresh
    checkout passes trivially; after running benches locally this catches a
    harness whose output file the figure map forgot.
    """
    figures = (REPO / "docs" / "FIGURES.md").read_text()
    for path in sorted(REPO.glob("BENCH_*.json")):
        if path.name not in figures:
            errors.append(
                f"{path.name}: bench output not referenced in "
                f"docs/FIGURES.md")


def check_figures_binaries(errors):
    """Every binary listed in a FIGURES.md table row must be a real target."""
    targets = cmake_targets()
    figures = REPO / "docs" / "FIGURES.md"
    for line_no, line in enumerate(figures.read_text().splitlines(), start=1):
        match = re.match(r"\|\s*`([A-Za-z0-9_]+)`\s*\|", line)
        if match and match.group(1) not in targets:
            errors.append(
                f"docs/FIGURES.md:{line_no}: `{match.group(1)}` is not a "
                f"CMake target")


def code_identifiers():
    """Every identifier in the C++ code of src/, bench/, tools/, examples/."""
    identifiers = set()
    for directory in ("src", "bench", "tools", "examples"):
        for path in (REPO / directory).rglob("*"):
            if path.suffix in (".h", ".cc", ".cpp"):
                code = COMMENT_RE.sub("", path.read_text())
                identifiers.update(IDENTIFIER_RE.findall(code))
    return identifiers


def check_scoped_names(errors):
    """Every `a::b` name in README.md and docs/*.md ends in a code name."""
    identifiers = code_identifiers()
    docs = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
    for md in docs:
        rel_md = md.relative_to(REPO)
        for line_no, line in enumerate(md.read_text().splitlines(), start=1):
            for span in CODE_SPAN_RE.findall(line):
                for name in SCOPED_NAME_RE.findall(span):
                    if name.split("::")[-1] not in identifiers:
                        errors.append(
                            f"{rel_md}:{line_no}: `{name}` names nothing in "
                            f"src/, bench/, tools/ or examples/")


def main():
    errors = []
    check_links(errors)
    check_build_commands(errors)
    check_bench_json_files(errors)
    check_figures_binaries(errors)
    check_scoped_names(errors)
    for error in errors:
        print(error)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)")
        return 1
    print("check_docs: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

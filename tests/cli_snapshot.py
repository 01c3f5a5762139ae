"""Byte-for-byte snapshot of the CLI on the fixtures.

Runs a fixed sweep of `rht` calls in one process and compares each call's
stdout, stderr and exit code with tests/cli_snapshot.json:

    python tests/cli_snapshot.py --check   # list each differing call, exit 1
    python tests/cli_snapshot.py --write   # regenerate the snapshot

Regenerate only for an intended output change, and name each changed call
where the change is recorded.  The sweep runs from the repository root and
names every file relative to it.  The comparison uses explicit checks, not
assert, so it holds under python -O as well.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = ROOT / "tests" / "cli_snapshot.json"
FILES = [
    *sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "tests" / "fixtures").glob("*.smf")),
    "perfbench/cp3.smf",
]
SUBCOMMANDS = (
    "homotopy", "cohomology", "der-homology", "gottlieb", "fibre-gottlieb",
    "connecting", "les-check", "toral-check", "depth", "poset", "enumerate",
)
FIBERS = ("tests/fixtures/fiber-3-3-3-3.smf", "tests/fixtures/fiber-3-5-9-17.smf")
# a catalog over two bases whose qt group starts with a twisted entry
SU4 = tuple(f"tests/fixtures/su4-{name}.smf" for name in ("circle", "torus", "trivial"))
# one file per way a model file can be misread, and one valid rational model
PARSE_FILES = sorted(
    p.relative_to(ROOT).as_posix() for p in (ROOT / "tests" / "fixtures" / "parse").glob("*.smf")
)


def calls() -> list[list[str]]:
    """Every subcommand in text and --json on every file (validate has no
    --json), toral-check at three windows, depth and poset with
    --require-finite at windows 1 and 6, both enumerations over base-qt.smf
    with and without --require-finite, and the enumerations with non-unit
    coefficients: 0,1,-1 on fiber-3-5-9-17 in --json, 0,2 on both fibres;
    then validate and cohomology through degree 5 on every parse file;
    depth and poset over the su4 files in both orders; last, the per-degree
    reports homotopy, gottlieb and fibre-gottlieb with --max-degree 7 and 40
    on every file, and cohomology with --max-degree 40 on every file."""
    out = []
    for path in FILES:
        out.append(["validate", path])
        for cmd in SUBCOMMANDS:
            out += [[cmd, path], [cmd, path, "--json"]]
        out += [["toral-check", path, "--window", w] for w in ("1", "3", "10")]
        out += [
            [cmd, path, "--require-finite", "--window", w]
            for cmd in ("depth", "poset")
            for w in ("1", "6")
        ]
    for fiber in FIBERS:
        for gate in ([], ["--require-finite"]):
            for fmt in ([], ["--json"]):
                out.append(["enumerate", fiber, "tests/fixtures/base-qt.smf", *gate, *fmt])
    out.append(["enumerate", FIBERS[1], "tests/fixtures/base-qt.smf", "--coeffs", "0,1,-1", "--json"])
    for fiber in FIBERS:
        out.append(["enumerate", fiber, "tests/fixtures/base-qt.smf", "--coeffs", "0,2"])
    for path in PARSE_FILES:
        out += [["validate", path], ["cohomology", path, "--max-degree", "5"]]
    for files in (SU4, SU4[::-1]):
        out += [[cmd, *files, *fmt] for cmd in ("depth", "poset") for fmt in ([], ["--json"])]
    for path in FILES:
        out += [
            [cmd, path, "--max-degree", top]
            for cmd in ("homotopy", "gottlieb", "fibre-gottlieb")
            for top in ("7", "40")
        ]
    out += [["cohomology", path, "--max-degree", "40"] for path in FILES]
    return out


def sweep() -> list[dict]:
    """Run every call in this process; one entry per call, in order."""
    from rht.cli import main

    entries = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in calls():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            entries.append(
                {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}
            )
    finally:
        os.chdir(cwd)
    return entries


def differences(expected: list[dict], actual: list[dict]) -> list[str]:
    """One line per call whose stdout, stderr or exit code differs."""
    if [e["argv"] for e in expected] != [a["argv"] for a in actual]:
        return ["the sweep's calls differ from the snapshot's"]
    return [
        f"{' '.join(e['argv'])}: {key} differs"
        for e, a in zip(expected, actual)
        for key in ("stdout", "stderr", "exit")
        if e[key] != a[key]
    ]


def load() -> list[dict]:
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the snapshot")
    mode.add_argument("--write", action="store_true", help="regenerate the snapshot")
    args = parser.parse_args(argv)
    entries = sweep()
    if args.write:
        SNAPSHOT.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(entries)} calls to {SNAPSHOT.relative_to(ROOT)}")
        return 0
    problems = differences(load(), entries)
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        return 1
    print(f"{len(entries)} calls match {SNAPSHOT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())

"""Every function in src/rht/ is entered by a caller outside the tests.

Runs, under a sys.setprofile call hook, each way the package is used from
outside the tests:

* the CLI sweep of tests/cli_snapshot.py;
* the help and usage-error calls: ``rht --help``, ``rht toral-check --help``,
  a flag the command does not read, and a command with no file;
* one pass of each benchmark workload at seed 1: the set-up of
  perfbench/workloads.py (``prepare``), every operation, then every check;
* the python blocks of README.md, in order, in one namespace.

Then it lists each function defined in src/rht/ (a def at any depth, a
method or a nested function) that none of them entered:

    python tests/reach.py   # name each function never entered, exit 1

A function may stay unentered only when ALLOWED names it with its reason,
or when EXEMPT holds its name.  An ALLOWED entry naming no function, or a
function that is entered, is an error too, so the list cannot go stale.  The
checks are explicit, not assert, so they hold under python -O as well.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rht"

# object protocol: a caller may need it without any path here reaching it
EXEMPT = ("__repr__", "__hash__")

# function (module.qualified.name) -> why it stays although nothing enters it
ALLOWED = {
    "algebra.AlgElement.__eq__": "the equality of the public diff view, which README says"
    " equals the d given; the package compares d as packed terms",
    "model.SullivanModel.is_minimal": "kept for exact finiteness and minimal models"
    " (ROADMAP items 3 and 5)",
    "catalog._Twist.entry": "builds an enumerated Catalog's entries; only"
    " perfbench/tracer.py reads Catalog.entries of an enumeration, in traced passes",
    "linalg.RatMatrix.__init__": "the checking constructor of the public RatMatrix, which"
    " README's linalg bullet names; the package builds each matrix it makes through _trusted",
}

HELP_CALLS = (
    ["--help"],
    ["toral-check", "--help"],
    ["gottlieb", "tests/fixtures/su5.smf", "--window", "3"],  # the full tree's usage error
    ["gottlieb"],  # the command's own parser meets the error first
)


def defined() -> dict[tuple[str, int], str]:
    """Each def in src/rht/, keyed by (file, first line of its code object,
    the first decorator's when it has one), to its module.qualified.name."""
    out = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[str(path), first] = f"{prefix}.{child.name}"
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, path, f"{prefix}.{child.name}" if named else prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return out


def _quiet(call, *args) -> None:
    """Run call(*args) with stdout and stderr captured and dropped; a
    SystemExit (help, a usage error) ends the call."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            call(*args)
        except SystemExit:
            pass


def workload_passes(rht) -> list[str]:
    """One pass of each workload at seed 1; a message per wrong output."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    golden, wrong = workloads.load_golden(), []
    for w in workloads.WORKLOADS.values():
        ops = workloads.prepare(rht, w, 1, 0, golden)
        results = {op.name: op.call() for op in ops}  # a CLI operation captures its own output
        wrong += [msg for op in ops if (msg := op.check(results)) is not None]
    return wrong


def readme_blocks() -> None:
    """README's python blocks, run in order in one namespace."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    namespace: dict = {}
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M):
        _quiet(exec, compile(block, "README.md", "exec"), namespace)


def census() -> tuple[set[tuple[str, int]], list[str]]:
    """The (file, first line) of every code object entered, and any wrong output."""
    import rht.cli
    from cli_snapshot import sweep

    seen: dict = {}  # id -> code object, kept alive so that no id is reused

    def hook(frame, event, arg):
        if event == "call":
            seen[id(frame.f_code)] = frame.f_code

    cwd = os.getcwd()
    os.chdir(ROOT)
    sys.setprofile(hook)
    try:
        sweep()
        for argv in HELP_CALLS:
            _quiet(rht.cli.main, argv)
        wrong = workload_passes(rht)
        readme_blocks()
    finally:
        sys.setprofile(None)
        os.chdir(cwd)
    return {(c.co_filename, c.co_firstlineno) for c in seen.values()}, wrong


def problems(functions: dict[tuple[str, int], str], entered: set) -> list[str]:
    """One line per function never entered and not excused, and per stale ALLOWED entry."""
    names = {name: key for key, name in functions.items()}
    out = [
        f"never entered: {name} ({Path(path).relative_to(ROOT).as_posix()}:{line})"
        for (path, line), name in sorted(functions.items())
        if (path, line) not in entered
        and name not in ALLOWED
        and name.rsplit(".", 1)[1] not in EXEMPT
    ]
    for name in ALLOWED:
        if name not in names:
            out.append(f"allowed but not defined: {name}")
        elif names[name] in entered:
            out.append(f"allowed but entered: {name}")
    return out


def main() -> int:
    functions = defined()
    entered, wrong = census()
    lines = problems(functions, entered) + [f"wrong benchmark output: {msg}" for msg in wrong]
    for line in lines:
        print(line, file=sys.stderr)
    if lines:
        return 1
    reached = sum(key in entered for key in functions)
    print(f"{reached} of {len(functions)} functions in src/rht/ entered, {len(ALLOWED)} allowed")
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    sys.exit(main())

"""The rht workloads: what one pass runs and how each output is checked.

An operation is one in-process ``rht.cli.main(argv)`` call on a model file,
or one library call on a generated fibration.  Outputs of CLI calls are
reduced to the fields that identify a correct answer (verdicts, dimensions,
canonical basis labels, exit codes) and compared with ``golden.json``.
Generated fibrations have no stored answers; they are checked against two
invariants instead.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import randfib

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

# random family: fibrations per pass (192 per run of 12 passes) and the
# generator's size limits
RANDOM_COUNT = 16
RANDOM_MAX_GENS = 5
RANDOM_MAX_DEGREE = 11


@dataclass
class Workload:
    name: str
    why: str
    # passes in a run of 30 s; the count depends on --seconds only, never on
    # the speed of the program, so every commit does the same work
    passes: int
    cli: list[tuple[str, list[str]]]  # (operation name, argv)
    random_count: int = 0


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    # given every result of the pass by operation name, a message when wrong
    check: Callable[[dict], Optional[str]]


def _fx(name: str) -> str:
    return str(FIXTURES / name)


SPACE_FIXTURES = ("su5.smf",)
FIBRATION_FIXTURES = (
    "ex44.smf",
    "ex47.smf",
    "su4-circle.smf",
    "su4-torus.smf",
    "su4-trivial.smf",
    "su5-bundle.smf",
    "wedge.smf",
)


def _enumerate(fiber: str, gate: bool) -> list[str]:
    argv = ["enumerate", _fx(fiber), _fx("base-qt.smf"), "--coeffs", "0,1", "--json"]
    return argv + (["--require-finite"] if gate else [])


def _sweep() -> list[tuple[str, list[str]]]:
    ops = []
    for f in SPACE_FIXTURES + FIBRATION_FIXTURES:
        for cmd in ("gottlieb", "der-homology"):
            ops.append((f"{cmd} {f}", [cmd, _fx(f), "--json"]))
    for f in FIBRATION_FIXTURES:
        for cmd in ("fibre-gottlieb", "connecting", "les-check"):
            ops.append((f"{cmd} {f}", [cmd, _fx(f), "--json"]))
    for f in ("ex47.smf", "wedge.smf"):
        for cmd in ("depth", "poset"):
            ops.append((f"{cmd} {f}", [cmd, _fx(f), "--json"]))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enumerate-gated",
            "many small repeated sub-problems: degree bases and finiteness windows"
            " recur, so memoization and window caching show; E3 skips the gate",
            6,
            [
                ("E1 enumerate 3-5-9-17 gated", _enumerate("fiber-3-5-9-17.smf", True)),
                ("E2 enumerate 3-3-3-3 gated", _enumerate("fiber-3-3-3-3.smf", True)),
                ("E3 enumerate 3-5-9-17 ungated", _enumerate("fiber-3-5-9-17.smf", False)),
            ],
        ),
        Workload(
            "toral-window",
            "exact cohomology in finiteness windows, the measured bottleneck; mixes"
            " certified verdicts with refuted ones that need an exact nonzero degree",
            4,
            [
                ("toral su4-circle w8", ["toral-check", _fx("su4-circle.smf"), "--window", "8", "--json"]),
                ("toral su4-torus w10", ["toral-check", _fx("su4-torus.smf"), "--window", "10", "--json"]),
                ("toral su4-trivial w8", ["toral-check", _fx("su4-trivial.smf"), "--window", "8", "--json"]),
                ("toral ex47 w6", ["toral-check", _fx("ex47.smf"), "--window", "6", "--json"]),
                ("toral cp3 w6", ["toral-check", str(HERE / "cp3.smf"), "--window", "6", "--json"]),
            ],
        ),
        Workload(
            "derivation-sweep",
            "derivation complexes and many small linear-algebra slices with no window;"
            " 3-8 ms operations expose per-call overhead in cli and model",
            # at least 11 passes, so that the ten samples beyond the tail
            # percentile are all les-check ex47, the slowest call of a pass
            12,
            _sweep(),
            random_count=RANDOM_COUNT,
        ),
    )
}


# ----------------------------------------------------------------------
# running and checking one CLI call


def cli_call(rht, argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = rht.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _json_docs(text: str) -> list:
    """The JSON documents printed one after another by a CLI call."""
    decoder, docs, i = json.JSONDecoder(), [], 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i == len(text):
            return docs
        doc, i = decoder.raw_decode(text, i)
        docs.append(doc)


def _degrees(doc: dict, with_basis: bool) -> dict:
    return {
        n: {"dim": row["dim"], "basis": row["basis"]} if with_basis else row["dim"]
        for n, row in doc["degrees"].items()
    }


def answer(argv: list[str], rc: int, out: str) -> dict:
    """The parts of a CLI output that a correct run must reproduce.

    Representatives of derivation homology and the witness chain of a depth
    depend on elimination order, so only their dimensions and lengths count.
    """
    cmd, docs = argv[0], _json_docs(out)
    if cmd == "toral-check":
        keys = ("model", "r", "verdict", "finite_through", "top_nonzero")
        found = [{k: d[k] for k in keys} for d in docs]
    elif cmd in ("gottlieb", "fibre-gottlieb", "connecting"):
        found = [{"model": d["model"], "degrees": _degrees(d, True)} for d in docs]
    elif cmd == "der-homology":
        found = [{"model": d["model"], "dims": _degrees(d, False)} for d in docs]
    elif cmd == "les-check":
        found = [
            {"model": d["model"], "exact": d["exact"], "dims": [[nd["node"], nd["dim"]] for nd in d["nodes"]]}
            for d in docs
        ]
    elif cmd == "depth":
        found = [{"depth": d["depth"], "witness_length": len(d["witness"])} for d in docs]
    elif cmd in ("poset", "enumerate"):
        found = [
            {
                "nodes": [[n["dim"], n["basis"], n["witnesses"]] for n in d["nodes"]],
                "edges": d["edges"],
                "kept": sum(len(n["witnesses"]) for n in d["nodes"]),
            }
            for d in docs
        ]
    else:
        raise ValueError(f"no golden extraction for {cmd!r}")
    return {"rc": rc, "docs": found}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


# ----------------------------------------------------------------------
# one pass


def input_files(w: Workload) -> list[Path]:
    """The model files a workload's CLI calls read."""
    files = []
    for _, argv in w.cli:
        for arg in argv:
            if arg.endswith(".smf") and Path(arg) not in files:
                files.append(Path(arg))
    return files


def prepare(rht, w: Workload, seed: int, pass_no: int, golden: dict) -> list[Op]:
    """Parse the workload's inputs and generate its fibrations: the set-up."""
    for path in input_files(w):
        rht.parse_document(path.read_text())
    ops = []
    for name, argv in w.cli:
        expected = golden[name]

        def check(results, name=name, argv=argv, expected=expected):
            rc, out, _ = results[name]
            found = json.loads(json.dumps(answer(argv, rc, out)))
            return None if found == expected else f"{name}: got {found}, expected {expected}"

        ops.append(Op(name, lambda argv=argv: cli_call(rht, argv), check))
    if w.random_count:
        family = randfib.random_family(
            rht, f"{seed}:{pass_no}", w.random_count, RANDOM_MAX_GENS, RANDOM_MAX_DEGREE
        )
        for i, f in enumerate(family):
            ops.extend(_random_ops(rht, f"random {i}", f))
    return ops


def _random_ops(rht, label: str, f) -> list[Op]:
    degrees = list(range(1, rht.invariants.top_shift(f) + 1))
    names = (f"{label} gottlieb", f"{label} fibre_gottlieb", f"{label} les_check")

    def check(results):
        if any(n not in results for n in names):
            return None  # a failed call is already counted as failed
        g, fg, les = (results[n] for n in names)
        if not g.total().includes(fg.total()):
            return f"{label} ({f.name}): fibre Gottlieb group not inside the Gottlieb group"
        if not les.exact:
            return f"{label} ({f.name}): long exact sequence not exact"
        return None

    def no_check(results):
        return None

    return [
        Op(names[0], lambda: rht.gottlieb(f), no_check),
        Op(names[1], lambda: rht.fibre_gottlieb(f), no_check),
        Op(names[2], lambda: rht.les_check(f, degrees), check),
    ]

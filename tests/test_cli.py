"""Command-line interface: subcommands, output shapes, exit codes."""

import argparse
import io
import json
import os
import random
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rht
import rht.catalog
import rht.cli
import rht.invariants
import rht.model
from rht import (
    ABSOLUTE,
    IDEAL,
    RELATIVE,
    HomologySlice,
    RelativeModel,
    finiteness_window,
    parse_document,
    parse_model,
)
from rht.cli import main
from rht.derivations import ComplexSlice, DerComplex
from rht.errors import ModelSyntaxError
from rht.invariants import LesNodeReport, LesReport, top_shift
from rht.model import formal_dimension_estimate

from cli_snapshot import differences, sweep
from cli_snapshot import load as load_snapshot
from conftest import CP3, FIXTURES, derivation_text, fixture_texts, random_space


def fx(name):
    return str(FIXTURES / name)


def subprocess_cli(*argv, timeout=None, **env):
    """Run the CLI in a fresh interpreter, env added to its environment;
    returns (code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(rht.__file__).parent.parent), **env)
    done = subprocess.run(
        [sys.executable, "-m", "rht.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    return done.returncode, done.stdout, done.stderr


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_within(capsys, seconds, *argv):
    """run() that fails the test when main takes longer than ``seconds``.

    Like any exception escaping main, the failure is not caught by main.
    """
    def overtime(signum, frame):
        pytest.fail(f"{' '.join(argv)} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, overtime)
    signal.alarm(seconds)
    try:
        return run(capsys, *argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def json_docs(text):
    """The JSON documents a report prints, one per model."""
    decoder, docs, pos = json.JSONDecoder(), [], 0
    while text[pos:].strip():
        doc, pos = decoder.raw_decode(text, text.index("{", pos))
        docs.append(doc)
    return docs


# ----------------------------------------------------------------------
# validate


def test_validate_good_files(capsys):
    code, out, _ = run(capsys, "validate", fx("su5.smf"), fx("ex47.smf"))
    assert code == 0
    assert "OK" in out and "3 model(s)" in out


def test_validate_bad_degree_exits_one(capsys):
    code, out, _ = run(capsys, "validate", fx("bad-degree.smf"))
    assert code == 1
    assert "DegreeMismatch" in out


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "gottlieb", "no-such-file.smf")
    assert code == 1


# ----------------------------------------------------------------------
# single-model reports


def test_gottlieb_table(capsys):
    code, out, _ = run(capsys, "gottlieb", fx("su5.smf"))
    assert code == 0
    for line in ("n=3  dim 1", "n=5  dim 1", "n=7  dim 1", "n=9  dim 1"):
        assert line in out


def test_fibre_gottlieb_json_schema(capsys):
    code, out, _ = run(capsys, "fibre-gottlieb", fx("ex44.smf"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"model", "degrees", "bound", "window"}
    assert doc["model"] == "two-sphere-twist"
    assert doc["degrees"]["7"] == {"dim": 1, "basis": ["w4*"]}
    assert doc["degrees"]["3"]["dim"] == 0


def test_der_homology_degree_range(capsys):
    code, out, _ = run(
        capsys, "der-homology", fx("su5.smf"), "--degrees", "1..2", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc["degrees"]) == {"1", "2"}
    assert doc["degrees"]["2"]["dim"] == 3


def test_homotopy_and_cohomology(capsys):
    code, out, _ = run(capsys, "homotopy", fx("su5.smf"))
    assert code == 0 and "n=3  dim 1  v1" in out
    code, out, _ = run(capsys, "cohomology", fx("su4-circle.smf"), "--max-degree", "8")
    assert code == 0 and "n=5  dim 1  v2" in out


EX44_DER_HOMOLOGY = """\
model two-sphere-twist
  n=1  dim 3  (w1, v1) + (w4, -v2*w2), (w2, v1) + (w4, v2*w1), (w4, w1*w2)
  n=2  dim 0
  n=3  dim 0
  n=4  dim 2  (w4, w1), (w4, w2)
  n=5  dim 1  (w4, v1)
  n=6  dim 0
  n=7  dim 1  (w4, 1)
"""

EX47_MULTI_TERM_CLASSES = [
    "  n=13  dim 6  t^5*w1, t^4*u*w1, t^3*u^2*w1, t^2*u^3*w1, t*w3 - u^2*w2, u^5*w1",
    "  n=15  dim 6  t^6*w1, t^5*u*w1, t^4*u^2*w1, t^3*u^3*w1, t^2*w3 - t*u^2*w2, t*u*w3 - u^3*w2",
    "  n=16  dim 5  t^8, t^7*u, t^6*u^2, t^5*u^3, t*w1*w3 - u^2*w1*w2",
]


def test_printed_representatives_are_pinned(capsys):
    # the goldens keep only dimensions; these pin the representatives
    # themselves, signed sums included
    code, out, err = run(capsys, "der-homology", fx("ex44.smf"))
    assert (code, out, err) == (0, EX44_DER_HOMOLOGY, "")
    code, out, _ = run(capsys, "cohomology", fx("ex47.smf"), "--max-degree", "16")
    assert code == 0
    multi = [line for line in out.splitlines() if " - " in line or " + " in line]
    assert multi == EX47_MULTI_TERM_CLASSES


def test_max_degree_zero_is_honoured(capsys):
    # 0 is a degree, not "unset": both tables stop below degree 1
    for cmd in ("homotopy", "gottlieb"):
        code, out, _ = run(capsys, cmd, fx("su5.smf"), "--max-degree", "0")
        assert (code, out) == (0, "model su5\n")


def test_huge_max_degree_visits_only_generator_degrees(capsys):
    # a row per degree that carries a generator, so a top far above the
    # generators costs nothing and prints the table without the option
    for cmd, name in (("homotopy", "su5.smf"), ("gottlieb", "su5.smf"),
                      ("fibre-gottlieb", "ex47.smf")):
        want = run(capsys, cmd, fx(name))
        assert want[0] == 0
        assert run_within(capsys, 10, cmd, fx(name), "--max-degree", "100000000") == want


def test_cohomology_stops_at_the_formal_dimension(capsys, monkeypatch):
    # su5's pure quotient is zero, so H is finite and zero above fd = 24:
    # no basis past fd + 1, the target of d from degree fd, is read, not
    # even an empty one
    built = []
    real = rht.GenSet.keys

    def recording(gens, n):
        built.append(n)
        return real(gens, n)

    monkeypatch.setattr(rht.GenSet, "keys", recording)
    code, out, _ = run(capsys, "cohomology", fx("su5.smf"), "--max-degree", "1000")
    fd = formal_dimension_estimate(parse_model(Path(fx("su5.smf")).read_text()).gens)
    assert code == 0 and "n=24  dim 1" in out
    assert built and max(built) <= fd + 1


def test_huge_max_degree_cohomology_prints_the_finite_table(capsys):
    want = run(capsys, "cohomology", fx("su5.smf"))
    assert want[0] == 0
    assert run_within(capsys, 10, "cohomology", fx("su5.smf"), "--max-degree", "100000000") == want
    # the bound is checked at the requested degree, not at the stop
    code, _, err = run(capsys, "cohomology", fx("wedge.smf"), "--max-degree", "40")
    assert code == 2 and err.startswith("BoundExceeded")


def test_oversized_cohomology_is_refused_before_any_basis_is_built(capsys, built_key_lists):
    # cp3's degree 88 is the first past MAX_BASIS; the count table says so
    # before a basis of the total space is built (the pure quotient's check
    # reads the even generators, a set of their own)
    cp3 = str(Path(__file__).parent.parent / "perfbench" / "cp3.smf")
    total = len(parse_document(Path(cp3).read_text())[0].total.gens)
    code, out, err = run_within(capsys, 10, "cohomology", cp3, "--max-degree", "100000")
    assert (code, out) == (2, "")
    assert err.startswith("CombinatorialBlowup: degree 88 has 50696 monomials, more than 50000")
    assert [n for gens, n in built_key_lists if len(gens) == total] == []


def test_connecting_report(capsys):
    code, out, _ = run(capsys, "connecting", fx("su5-bundle.smf"))
    assert code == 0
    assert "n=3  dim 1  v1*" in out and "n=9  dim 0" in out


def test_les_check_exit_zero(capsys):
    code, out, _ = run(capsys, "les-check", fx("su5-bundle.smf"), "--degrees", "2..4")
    assert code == 0 and "exact" in out


BOUNDED_FIBRATION = """\
[fibration bounded]
[base]
gen t 2
bound 4
[fiber]
gen x 3
gen y 8
[total]
D y = t^3*x
"""


@pytest.mark.parametrize("degrees, overrun", [("2", 6), ("3", 5)])
def test_les_check_names_the_first_degree_past_the_bound(capsys, tmp_path, degrees, overrun):
    # the deepest slices are read first: nodes in degree k read the slices
    # of shifts k - 1 and k, and the first pair past the bound is y's value
    # in degree 8 - k
    path = tmp_path / "bounded.smf"
    path.write_text(BOUNDED_FIBRATION)
    code, out, err = run(capsys, "les-check", str(path), "--degrees", degrees)
    assert (code, out) == (2, "")
    assert err == f"BoundExceeded: degree {overrun} exceeds the model's validity bound 4\n"


def test_degrees_past_max_basis_are_refused(capsys, monkeypatch):
    # no generator has a degree above MAX_BASIS, so every derivation there is
    # zero: a range that ends past it is refused on one line with exit 2,
    # before any complex is built, where les-check met an OverflowError and
    # der-homology ran until it was killed
    built = []
    real_init = DerComplex.__init__

    def recording_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(DerComplex, "__init__", recording_init)
    for command in ("les-check", "der-homology"):
        for degrees in (f"1..{2**64}", "4294967296", "50001"):
            code, out, err = run_within(capsys, 10, command, fx("su4-torus.smf"), "--degrees", degrees)
            top = degrees.rpartition("..")[2]
            assert (code, out) == (2, ""), (command, degrees)
            refusal = f"--degrees ends at {top}, past 50000, the highest generator degree"
            assert err == f"CombinatorialBlowup: {refusal}\n", (command, degrees)
        assert not built, command
        # the top degree a generator may have is still read, and is zero
        code, out, _ = run_within(capsys, 10, command, fx("su4-torus.smf"), "--degrees", "50000")
        assert code == 0 and "dim 0" in out and "dim 1" not in out, (command, out)
        built.clear()


REPORTS = [
    ("no-rows", [], 5),
    ("a\\b \u00e9", [(1, (2, ["x", "y*z - 1/2*w"])), (4, (1, ["t^2"]))], None),
    ("zeros", [(2, (0, [])), (3, (1, ["v"])), (7, (0, []))], 12),
]


def test_report_degrees_writes_each_row_as_it_comes(monkeypatch, capsys, tmp_path):
    # the streamed writer prints what json.dumps(doc, indent=2) and the
    # joined text lines print, on what the snapshot lacks (no row at all, a
    # name with a backslash, a non-ASCII letter and a space, dim 0 rows,
    # bound as an int and as None) and on the cohomology of random spaces;
    # each row is written before the next is asked for.  les-check --json's
    # writer beside it prints json.dumps(doc, indent=2) for each fibration
    # of a file: on every fixture fibration, cp3, a single degree, a range
    # and a name json.dumps escapes, then on a report with no node and one
    # that is not exact, written directly
    rng = random.Random(23)
    reports = list(REPORTS)
    for m in (random_space(rng) for _ in range(6)):
        reports.append((m.name, list(rht.cohomology(m, 10)), m.bound))
    for name, rows, bound in reports:
        degrees = {str(n): {"dim": dim, "basis": basis} for n, (dim, basis) in rows}
        doc = {"model": name, "degrees": degrees, "bound": bound, "window": None}
        lines = [f"model {name}"]
        for n, (dim, basis) in rows:
            lines.append(f"  n={n}  dim {dim}" + ("  " + ", ".join(basis) if basis else ""))
        for as_json, want in ((True, json.dumps(doc, indent=2)), (False, "\n".join(lines))):
            out, seen = io.StringIO(), []  # seen: what was written when each row was asked for

            def stream():
                for row in rows:
                    seen.append(out.getvalue())
                    yield row

            monkeypatch.setattr(sys, "stdout", out)
            rht.cli._report_degrees(argparse.Namespace(json=as_json), name, stream(), bound)
            monkeypatch.undo()
            assert out.getvalue() == want + "\n", (name, as_json)
            assert all(a < b for a, b in zip(map(len, seen), map(len, seen[1:]))), (name, as_json)
    odd = tmp_path / "odd.smf"
    text = Path(fx("su4-circle.smf")).read_text()
    odd.write_text(text.replace("su4-circle", '"\u00f6 \\ x"'), encoding="utf-8")
    paths = [p for p in sorted(FIXTURES.glob("*.smf")) if "[fibration" in p.read_text()]
    cases = [(str(p), None, None) for p in paths + [CP3, odd]]
    cases += [(fx("ex47.smf"), "2", [2]), (fx("su5-bundle.smf"), "2..4", [2, 3, 4]), (str(odd), "3", [3])]
    for path, spec, degrees in cases:
        want = ""
        for f in parse_document(Path(path).read_text(encoding="utf-8")):
            report = rht.les_check(f, degrees or range(1, top_shift(f) + 1))
            doc = {"model": f.name, "chain_level_ok": report.chain_level_ok,
                   "exact": report.exact, "nodes": [vars(nd) for nd in report.nodes]}
            want += json.dumps(doc, indent=2) + "\n"
        code, out, err = run(capsys, "les-check", path, "--json", *(["--degrees", spec] if spec else []))
        assert (code, out, err) == (0, want, ""), (path, spec)
    assert "\\u00f6" in out
    for report in (LesReport(), LesReport([LesNodeReport("H_2(ideal)", 3, 1, 1, False)], False)):
        doc = {"model": "m", "chain_level_ok": report.chain_level_ok, "exact": report.exact,
               "nodes": [vars(nd) for nd in report.nodes]}
        rht.cli._report_les(argparse.Namespace(json=True), "m", report)
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def test_les_check_reports_a_sequence_that_is_not_exact(capsys, monkeypatch):
    # no fixture has a non-exact sequence: the first of ex47's three
    # fibrations gets one node whose ranks do not add up to its dimension
    def fake_les_check(f, degrees, _shared=None):
        out = 0 if f.name == "tpower" else 1
        return LesReport([LesNodeReport("H_2(relative)", 2, 1, out, bool(out))])

    monkeypatch.setattr(rht.cli, "les_check", fake_les_check)
    code, out, err = run(capsys, "les-check", fx("ex47.smf"), "--degrees", "2")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "model tpower", "  H_2(relative): dim 2, in 1, out 0  [FAIL]", "  NOT exact",
        "model first", "  H_2(relative): dim 2, in 1, out 1  [ok]", "  exact",
        "model second", "  H_2(relative): dim 2, in 1, out 1  [ok]", "  exact",
    ]
    code, out, err = run(capsys, "les-check", fx("ex47.smf"), "--degrees", "2", "--json")
    assert (code, err) == (1, "")
    docs = json_docs(out)
    assert [(doc["model"], doc["exact"]) for doc in docs] == [
        ("tpower", False), ("first", True), ("second", True)
    ]
    assert list(docs[0]) == ["model", "chain_level_ok", "exact", "nodes"]
    assert docs[0]["chain_level_ok"] is True
    assert [list(node.items()) for node in docs[0]["nodes"]] == [
        [("node", "H_2(relative)"), ("dim", 2), ("rank_in", 1), ("rank_out", 0),
         ("exact", False)]
    ]


# four fibrations over one layout: "a" and "b" share a fibre, "c" has
# another fibre d, and "d" has a's fibre below a lower bound, which the
# slices at shifts 0 and 1 pass (y to a monomial of degree 5 and 4)
FOUR_FIBRATIONS = """
[fibration a]
[base]
gen t 2
[fiber]
gen u 2
gen x 3
gen y 5
d y = u^3
[total]
D x = t^2
D y = u^3

[fibration b]
[base]
gen t 2
[fiber]
gen u 2
gen x 3
gen y 5
d y = u^3
[total]
D y = u^3 + u^2*t

[fibration c]
[base]
gen t 2
[fiber]
gen u 2
gen x 3
gen y 5
d x = u^2
d y = u^3
[total]
D x = u^2 + u*t
D y = u^3 + t^3

[fibration d]
[base]
gen t 2
[fiber]
gen u 2
gen x 3
gen y 5
d y = u^3
bound 3
[total]
D x = u*t
D y = u^3
"""


def test_fibre_sharing_never_crosses_fibres(capsys, tmp_path):
    # each command prints on the whole file what it prints on one file per
    # fibration, one after the other; an overrun in the last fibration is
    # reported after the three reports before it.  gottlieb reads only the
    # fibre's complex, so it overruns only if "d" gets a fibre of its own.
    whole = tmp_path / "four.smf"
    whole.write_text(FOUR_FIBRATIONS)
    parts = []
    for i, text in enumerate(FOUR_FIBRATIONS.split("\n\n")):
        parts.append(tmp_path / f"part{i}.smf")
        parts[-1].write_text(text + "\n")
    assert len(parts) == 4
    overruns = []
    for command in ("gottlieb", "les-check", "fibre-gottlieb", "der-homology"):
        flags = ["--degrees", "4..5"] if command in ("les-check", "der-homology") else ["--max-degree", "1"]
        for extra in ([], flags):
            for json_flag in ([], ["--json"]):
                argv = [command, *extra, *json_flag]
                want, code = ["", ""], 0
                for part in parts:
                    code, out, err = run(capsys, argv[0], str(part), *argv[1:])
                    want = [want[0] + out, want[1] + err]
                    if code:
                        break
                got = run(capsys, argv[0], str(whole), *argv[1:])
                assert got == (code, *want), argv
                if code:
                    assert (code, out, got[1].count("model")) == (2, "", 3), argv
                    assert got[2].startswith("BoundExceeded: degree 4 exceeds"), argv
                    overruns.append(command)
    # each command overruns in "d" at its default degrees, in text and JSON
    assert Counter(overruns) == {"gottlieb": 2, "les-check": 2, "fibre-gottlieb": 2, "der-homology": 2}


# four fibrations over one total layout (a3, b5, c7): "split" and "lift"
# split it two ways, "trivial" has split's fibre and layout and another D,
# and "low" is split below a lower bound, which overruns at shift 0
FOUR_LAYOUTS = """
[fibration split]
[base]
gen a 3
[fiber]
gen b 5
gen c 7
[total]
D c = a*b

[fibration lift]
[base]
gen a 3
gen b 5
[fiber]
gen c 7
[total]
D c = a*b

[fibration trivial]
[base]
gen a 3
[fiber]
gen b 5
gen c 7
[total]
D c = 0

[fibration low]
[base]
gen a 3
[fiber]
gen b 5
gen c 7
bound 6
[total]
D c = a*b
"""


def test_layout_sharing_never_crosses_layouts(capsys, tmp_path):
    # what a call shares per layout (slices, positions) is keyed by the total
    # and fibre generators and the bound: each command prints on the whole
    # file what it prints on one file per fibration, one after the other
    whole = tmp_path / "layouts.smf"
    whole.write_text(FOUR_LAYOUTS)
    parts = []
    for i, text in enumerate(FOUR_LAYOUTS.split("\n\n")):
        parts.append(tmp_path / f"part{i}.smf")
        parts[-1].write_text(text + "\n")
    assert len(parts) == 4
    outcomes = []
    for command in ("les-check", "der-homology", "fibre-gottlieb", "gottlieb"):
        flags = ["--degrees", "3..4"] if command in ("les-check", "der-homology") else ["--max-degree", "5"]
        for extra in ([], flags):
            for json_flag in ([], ["--json"]):
                argv = [command, *extra, *json_flag]
                want, code = ["", ""], 0
                for part in parts:
                    code, out, err = run(capsys, argv[0], str(part), *argv[1:])
                    want = [want[0] + out, want[1] + err]
                    if code:
                        break
                got = run(capsys, argv[0], str(whole), *argv[1:])
                assert got == (code, *want), argv
                outcomes.append((command, code))
    # split and trivial differ in D alone, and in what they print
    _, out, _ = run(capsys, "der-homology", str(whole), "--degrees", "4")
    assert "model split\n  n=4  dim 0\n" in out and "model trivial\n  n=4  dim 1  (c, a)\n" in out
    # only les-check and der-homology at their default degrees read shift 0
    assert Counter(outcomes) == {
        ("les-check", 2): 2, ("les-check", 0): 2, ("der-homology", 2): 2, ("der-homology", 0): 2,
        ("fibre-gottlieb", 0): 4, ("gottlieb", 0): 4,
    }


def test_catalog_file_shares_each_layout_once(capsys, monkeypatch):
    # ex47's three fibrations share one layout and one fibre: each call builds
    # each slice once per shift and scope and, in les-check, one set of
    # inclusion and restriction positions per shift; the fibre's absolute
    # homology and gottlieb's images are built once, not once per fibration
    slices, positions, work = Counter(), Counter(), Counter()
    real_init, real_positions = ComplexSlice.__init__, DerComplex.positions
    real_homology, real_bracket = HomologySlice.__init__, DerComplex.bracket
    real_image = rht.invariants._image_on_cycles

    def counting_init(self, *args):
        real_init(self, *args)
        slices[self.scope, self.degree] += 1

    def counting_positions(self, other, n):
        positions[self.scope, other.scope, n] += 1
        return real_positions(self, other, n)

    def counting_homology(self, *args):
        work["homology"] += 1
        real_homology(self, *args)

    def counting_bracket(self, n, images):
        work["bracket"] += 1
        return real_bracket(self, n, images)

    def counting_image(*args):
        work["image"] += 1
        return real_image(*args)

    monkeypatch.setattr(ComplexSlice, "__init__", counting_init)
    monkeypatch.setattr(DerComplex, "positions", counting_positions)
    monkeypatch.setattr(HomologySlice, "__init__", counting_homology)
    monkeypatch.setattr(DerComplex, "bracket", counting_bracket)
    monkeypatch.setattr(rht.invariants, "_image_on_cycles", counting_image)
    seen = {}
    for command in ("les-check", "der-homology", "fibre-gottlieb", "gottlieb"):
        for record in (slices, positions, work):
            record.clear()
        code, out, _ = run(capsys, command, fx("ex47.smf"))
        assert (code, out.count("model ")) == (0, 3), command
        assert set(slices.values()) == {1} and set(positions.values()) <= {1}, command
        seen[command] = (
            Counter(scope for scope, _ in slices), Counter((a, b) for a, b, _ in positions), dict(work)
        )
    assert seen == {
        # shifts 0..18, and absolute shift 19 below the connecting map's H_18
        "les-check": ({"relative": 19, "ideal": 19, "absolute": 20},
                      {("ideal", "relative"): 19, ("relative", "absolute"): 19},
                      {"homology": 120, "bracket": 73}),
        "der-homology": ({"relative": 19}, {}, {"homology": 51, "bracket": 54}),
        "fibre-gottlieb": ({"relative": 12}, {}, {"bracket": 27, "image": 15}),
        # shifts 0..11 of the fibre's absolute complex, one per frame degree and below
        "gottlieb": ({"absolute": 12}, {}, {"bracket": 9, "image": 5}),
    }


def test_catalog_file_does_fibre_work_once(capsys, monkeypatch):
    # on ex47's three fibrations over one fibre and one [base] section,
    # les-check builds each absolute shift's homology once and each relative
    # and ideal one per fibration, gottlieb builds one image per frame
    # degree, and the reader validates one base and each fibration's fibre
    # and total
    built, images, validated = {}, [], []
    real_homology, real_image = DerComplex.homology, rht.invariants._image_on_cycles
    real_validate = rht.model.SullivanModel.validate

    def recording_homology(self, n):
        h = real_homology(self, n)
        built.setdefault((self.scope, n), {})[id(h)] = h  # keeps h, so no id is reused
        return h

    def recording_image(*args):
        images.append(args[-1])
        return real_image(*args)

    def recording_validate(self):
        validated.append(self)
        real_validate(self)

    monkeypatch.setattr(DerComplex, "homology", recording_homology)
    monkeypatch.setattr(rht.invariants, "_image_on_cycles", recording_image)
    monkeypatch.setattr(rht.model.SullivanModel, "validate", recording_validate)
    code, out, _ = run(capsys, "les-check", fx("ex47.smf"))
    assert (code, out.count("  exact"), len(validated)) == (0, 3, 7)
    per_scope = Counter((scope, len(made)) for (scope, _), made in built.items())
    assert set(per_scope) == {(ABSOLUTE, 1), (RELATIVE, 3), (IDEAL, 3)}, per_scope
    code, out, _ = run(capsys, "gottlieb", fx("ex47.smf"))
    assert (code, out.count("model ")) == (0, 3)
    assert images == [("u*",), ("w1*",), ("w2*",), ("w3*",), ("w4*",)]


def test_toral_check(capsys):
    code, out, _ = run(
        capsys, "toral-check", fx("su4-torus.smf"), "--window", "6", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == 3 and doc["verdict"] == "certified"


# ----------------------------------------------------------------------
# multi-model commands


def test_depth_report(capsys):
    code, out, _ = run(capsys, "depth", fx("wedge.smf"))
    assert code == 0
    assert "depth 2" in out and "p00 > p10 > p11" in out


def test_poset_text_and_dot(capsys, tmp_path):
    dot_path = tmp_path / "out.dot"
    code, out, _ = run(capsys, "poset", fx("ex47.smf"), "--dot", str(dot_path))
    assert code == 0
    assert "[0] > [1]" in out and "[1] > [2]" in out
    dot = dot_path.read_text()
    assert dot.startswith("digraph") and "n1 -> n2;" in dot


def test_poset_rejects_mixed_fibers(capsys):
    code, _, err = run(capsys, "poset", fx("ex47.smf"), fx("su5-bundle.smf"))
    assert code == 1
    assert "FiberMismatch" in err


def test_enumerate_single_node(capsys):
    code, out, err = run(
        capsys,
        "enumerate",
        fx("fiber-3-3-3-3.smf"),
        fx("base-qt.smf"),
        "--require-finite",
        "--json",
    )
    assert code == 0
    assert "15 fibration(s) kept" in err
    doc = json.loads(out)
    assert len(doc["nodes"]) == 1 and doc["nodes"][0]["dim"] == 4


def test_enumerate_builds_no_relative_model_per_candidate(capsys, monkeypatch):
    # E1 of the benchmark: each of the 58 closed candidates stays a vector
    # of slot coefficients; only its total space is built, whose validation
    # checks D.D = 0, and the 42 finite ones are realized without an entry;
    # every model, given or packed, is assembled (a RelativeModel) or
    # validated (a SullivanModel) once
    relative, totals = [], Counter()
    real_relative, real_space = RelativeModel._assemble, rht.model.SullivanModel.validate

    def counting_relative(self, *args, **kwargs):
        relative.append(self)
        return real_relative(self, *args, **kwargs)

    def counting_space(self):
        totals[len(self.gens)] += 1
        real_space(self)

    monkeypatch.setattr(RelativeModel, "_assemble", counting_relative)
    monkeypatch.setattr(rht.model.SullivanModel, "validate", counting_space)
    code, _, err = run(
        capsys, "enumerate", fx("fiber-3-5-9-17.smf"), fx("base-qt.smf"),
        "--coeffs", "0,1", "--json", "--require-finite",
    )
    assert (code, err) == (0, "42 fibration(s) kept\n")
    assert len(relative) <= 1  # the trivial fibration's own
    # the trivial fibration's total, then one per closed candidate
    assert totals[5] == 1 + 58, totals


def test_enumerate_builds_as_many_elements_at_any_coefficients(capsys, monkeypatch):
    # E1 of the benchmark twists packed terms and the reader and the writer
    # read packed terms: no element is built at 0,1 (2^8 candidates) nor at
    # 0,1,-1 (3^8), nor while every fixture is parsed and written back;
    # building each candidate's D as elements made 249 and 3,060
    built = []
    real = rht.AlgElement.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(rht.AlgElement, "__init__", counting)
    counts = {}
    for coeffs in ("0,1", "0,1,-1"):
        built.clear()
        code, _, err = run(
            capsys, "enumerate", fx("fiber-3-5-9-17.smf"), fx("base-qt.smf"),
            "--coeffs", coeffs, "--json", "--require-finite",
        )
        assert code == 0 and err.endswith("fibration(s) kept\n"), err
        counts[coeffs] = len(built)
    built.clear()
    for text in fixture_texts():
        for m in rht.parse_document(text):
            m.serialize()
    counts["fixtures"] = len(built)
    assert counts == {"0,1": 0, "0,1,-1": 0, "fixtures": 0}, counts


def test_enumerate_windows_each_model_once(capsys, monkeypatch):
    # every total is decided once, through the one finiteness decision that
    # the catalog and the toral certificate both call
    calls = Counter()
    real = rht.invariants.finiteness_window

    def counted(model, window=6):
        calls[model.name] += 1
        return real(model, window)

    monkeypatch.setattr(rht.catalog, "finiteness_window", counted)
    monkeypatch.setattr(rht.invariants, "finiteness_window", counted)
    runs = [
        (("enumerate", fx("fiber-3-3-3-3.smf"), fx("base-qt.smf"), "--require-finite"), 16),
        (("enumerate", fx("fiber-3-5-9-17.smf"), fx("base-qt.smf"), "--coeffs", "0,1",
          "--require-finite"), 58),
        (("depth", fx("ex47.smf"), "--require-finite"), 3),
        (("toral-check", fx("ex47.smf")), 3),
    ]
    for argv, decided in runs:
        calls.clear()
        code, _, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        assert len(calls) == decided and set(calls.values()) == {1}, (argv, calls)


def test_enumerate_needs_two_spaces(capsys):
    code, _, err = run(capsys, "enumerate", fx("fiber-3-3-3-3.smf"))
    assert code == 1
    assert "exactly two" in err


def test_enumerate_searches_more_slots_than_the_recursion_limit(capsys, tmp_path):
    # D(x) may take any of the 1,771 monomials of degree 42 in a, b, c, t
    # that contain t; with the one coefficient 0 the candidate cap never
    # binds, and the search keeps the trivial fibration without recursing
    path = tmp_path / "wide.smf"
    path.write_text("[space wide]\ngen a 2\ngen b 2\ngen c 2\ngen x 41\n")
    assert sys.getrecursionlimit() < 1771
    code, out, err = run_within(
        capsys, 10, "enumerate", str(path), fx("base-qt.smf"), "--coeffs", "0", "--json"
    )
    assert (code, err) == (0, "1 fibration(s) kept\n")
    assert [node["witnesses"] for node in json.loads(out)["nodes"]] == [["trivial"]]


# ----------------------------------------------------------------------
# computation errors exit with status 2


def test_bound_overrun_exits_two(capsys):
    code, _, err = run(capsys, "cohomology", fx("wedge.smf"), "--max-degree", "20")
    assert code == 2
    assert "BoundExceeded" in err


def test_oversized_basis_exits_two(tmp_path):
    # degree 40 of six degree-2 generators has 53,130 monomials; the size
    # guard stops the run before any elimination
    six = tmp_path / "six.smf"
    six.write_text("".join(f"gen x{i} 2\n" for i in range(6)))
    code, _, err = subprocess_cli("cohomology", str(six), "--max-degree", "60", timeout=60)
    assert code == 2
    assert "CombinatorialBlowup: degree 40 has 53130 monomials" in err


def test_finiteness_gate_failure_exits_two(capsys):
    code, _, err = run(
        capsys, "depth", fx("su4-trivial.smf"), "--require-finite"
    )
    assert code == 2
    assert "NotFiniteAtBound" in err


# ----------------------------------------------------------------------
# bad input ends in a one-line message, never a traceback


def test_wide_window_is_certified_by_the_pure_quotient():
    # a window of 1000 past fd = 38 would eliminate cochains in 1000 degrees;
    # the pure quotient certifies ex47 exactly from a few low degrees
    code, out, err = subprocess_cli("toral-check", fx("ex47.smf"), "--window", "1000", "--json",
                                    timeout=15)
    assert code == 0, err
    docs = json_docs(out)
    assert len(docs) == 3
    assert all(d["verdict"] == "certified" and d["finite_through"] == 1038 for d in docs)
    code, out, err = subprocess_cli("depth", fx("ex47.smf"), "--window", "1000",
                                    "--require-finite", timeout=15)
    assert code == 0, err


def test_a_window_past_any_packed_degree_is_refused_in_one_line(capsys):
    # cp3's window reaches degree 10^11 + 10, whose exponents no packed
    # monomial holds: refused before a count table that long is built.
    # su4-circle's pure quotient certifies it without that degree
    cp3 = str(Path(__file__).parent.parent / "perfbench" / "cp3.smf")
    code, out, err = run(capsys, "toral-check", cp3, "--window", "99999999999")
    assert (code, out) == (2, "")
    assert err == (
        "CombinatorialBlowup: degree 100000000010 has exponents a packed monomial cannot hold\n"
    )
    circle = fx("su4-circle.smf")
    code, out, err = run(capsys, "toral-check", circle, "--window", "99999999999", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "certified"


@pytest.mark.parametrize(
    "flag",
    [["--require-finite"], ["--window", "3"], ["--coeffs", "x"]],
    ids=["require-finite", "window", "coeffs"],
)
def test_subcommand_refuses_flags_it_does_not_read(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["gottlieb", fx("su5.smf"), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


# model files with digits other than ASCII 0-9: int() refuses a superscript,
# and a regex \d reads an Arabic-Indic digit as its value
DIGIT_FILES = {
    "GEN-SUPERSCRIPT-DEGREE": "gen x \u00b2\n",
    "BOUND-SUPERSCRIPT": "gen x 2\nbound \u00b2\n",
    "GEN-ARABIC-DEGREE": "gen x \u0663\n",
    "EXPONENT-ARABIC": "gen t 2\ngen y 5\nd y = t^\u0663\n",
    "COEFFICIENT-ARABIC": "gen t 2\ngen y 5\nd y = \u0663*t^3\n",
    # past the interpreter's 4,300-digit limit on integer string conversion
    "GEN-LONG-DEGREE": f"gen x {'1' * 5000}\n",
    "BOUND-LONG": f"gen x 2\nbound {'1' * 5000}\n",
    "EXPONENT-LONG": f"gen t 2\ngen y 5\nd y = t^{'1' * 5000}\n",
    "COEFFICIENT-LONG": f"gen t 2\ngen y 5\nd y = {'1' * 5000}*t^3\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["les-check", fx("ex44.smf"), "--degrees", "5..3"],
        ["les-check", fx("ex44.smf"), "--degrees", "abc"],
        ["der-homology", fx("su5.smf"), "--degrees", "0..2"],
        ["enumerate", fx("fiber-3-3-3-3.smf"), fx("base-qt.smf"), "--coeffs", "1/0"],
        ["enumerate", fx("fiber-3-3-3-3.smf"), fx("base-qt.smf"), "--coeffs", ""],
        ["enumerate", fx("fiber-3-3-3-3.smf"), fx("base-qt.smf"), "--coeffs", ",,"],
        ["validate", "NOT-UTF8"],
        ["gottlieb", "NOT-UTF8"],
        ["cohomology", fx("su5.smf"), "--max-degree", "-1"],
        ["toral-check", fx("su4-trivial.smf"), "--window", "0"],
        ["toral-check", fx("su4-trivial.smf"), "--window", "-2"],
        ["depth", fx("ex47.smf"), fx("ex47.smf")],
        ["poset", "NOT-ASCII-NAME"],
        ["validate", "GEN-SUPERSCRIPT-DEGREE"],
        ["validate", "BOUND-SUPERSCRIPT"],
        ["gottlieb", "GEN-ARABIC-DEGREE"],
        ["validate", "EXPONENT-ARABIC"],
        ["validate", "COEFFICIENT-ARABIC"],
        ["validate", "GEN-LONG-DEGREE"],
        ["validate", "BOUND-LONG"],
        ["validate", "EXPONENT-LONG"],
        ["validate", "COEFFICIENT-LONG"],
    ],
    ids=[
        "degrees-reversed",
        "degrees-not-a-number",
        "degrees-below-one",
        "coeffs-zero-denominator",
        "coeffs-empty",
        "coeffs-only-commas",
        "validate-not-utf8",
        "gottlieb-not-utf8",
        "max-degree-negative",
        "window-zero",
        "window-negative",
        "duplicate-catalog-id",
        "name-stdout-cannot-encode",
        "gen-superscript-degree",
        "bound-superscript",
        "gen-arabic-degree",
        "exponent-arabic",
        "coefficient-arabic",
        "gen-long-degree",
        "bound-long",
        "exponent-long",
        "coefficient-long",
    ],
)
def test_bad_input_exits_one_without_traceback(argv, tmp_path):
    bad = tmp_path / "latin1.smf"
    bad.write_bytes("[space caf\xe9]\ngen v 3\n".encode("latin-1"))
    # a valid file whose first fibration's name an ASCII stdout cannot print
    named = tmp_path / "named.smf"
    text = (FIXTURES / "ex47.smf").read_text(encoding="utf-8")
    named.write_text(text.replace("[fibration tpower]", '[fibration "tp\xf6wer"]'), "utf-8")
    files = {"NOT-UTF8": str(bad), "NOT-ASCII-NAME": str(named)}
    for key, text in DIGIT_FILES.items():
        (tmp_path / f"{key}.smf").write_text(text, "utf-8")
        files[key] = str(tmp_path / f"{key}.smf")
    code, out, err = subprocess_cli(*(files.get(a, a) for a in argv), PYTHONIOENCODING="ascii")
    assert code == 1
    assert "Traceback" not in err
    assert len((err or out).strip().splitlines()) == 1


# a point, as a space and as the fibre of a fibration, and the contractible
# pair (y3, x4, dy = x): valid models whose cohomology is Q in degree 0
POINT_MODELS = {
    "point": "[space point]\n",
    "point-fibre": "[fibration point-fibre]\n[base]\ngen t 2\n[fiber]\n[total]\n",
}
CONTRACTIBLE_PAIR = "[space pair]\ngen y 3\ngen x 4\nd y = x\n"
SUBCOMMANDS = (
    "validate", "homotopy", "cohomology", "der-homology", "gottlieb", "fibre-gottlieb",
    "connecting", "les-check", "toral-check", "depth", "poset", "enumerate",
)
POINT_RUNS = [*SUBCOMMANDS, "cohomology --max-degree 3", "les-check --degrees 1..3"]
# what each model cannot answer, in one line: no fibration, no default
# degree range, a polynomial base with no --max-degree, not two spaces
POINT_REFUSALS = {
    "point": {"fibre-gottlieb", "connecting", "les-check", "les-check --degrees 1..3",
              "toral-check", "depth", "poset", "enumerate"},
    "point-fibre": {"cohomology", "les-check", "enumerate"},
}
# the sweeps below run every subcommand through main in this process, where
# any exception escaping main fails the test; this one also runs in a fresh
# interpreter, where an exception would print a traceback
IN_A_REAL_PROCESS = "enumerate"


@pytest.mark.parametrize("name", sorted(POINT_MODELS))
def test_models_without_generators_exit_without_traceback(name, tmp_path, capsys):
    path = tmp_path / f"{name}.smf"
    path.write_text(POINT_MODELS[name])
    for line, real in [*((line, False) for line in POINT_RUNS), (IN_A_REAL_PROCESS, True)]:
        cmd, *flags = line.split()
        if real:
            code, out, err = subprocess_cli(cmd, str(path), *flags, timeout=10)
        else:
            code, out, err = run_within(capsys, 10, cmd, str(path), *flags)
        assert "Traceback" not in err, (line, err)
        assert code == (1 if line in POINT_REFUSALS[name] else 0), (line, code, err)
        if code:
            assert len(err.strip().splitlines()) == 1, (line, err)


def test_contractible_models_have_formal_dimension_zero(capsys, tmp_path):
    # H = Q: the formal dimension is 0, so the window certifies and
    # cohomology has a default range
    for text in (POINT_MODELS["point"], CONTRACTIBLE_PAIR):
        m = parse_model(text)
        assert formal_dimension_estimate(m.gens) == 0, m.name
        assert finiteness_window(m, 6)[:2] == (True, 0), m.name
        path = tmp_path / f"{m.name}.smf"
        path.write_text(text)
        code, out, err = run(capsys, "cohomology", str(path))
        assert (code, out, err) == (0, f"model {m.name}\n  n=0  dim 1  1\n", "")


def test_closed_stdout_exits_141_quietly():
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(rht.__file__).parent.parent))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "rht.cli", "les-check", fx("ex47.smf")],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == b""


def test_cli_imports_only_the_standard_library():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from rht.cli import main\n"
        f"main(['gottlieb', {fx('su5.smf')!r}])\n"
        "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'rht'}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(rht.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# a line the reader once dropped, or let a later line override, and the line
# number it is now refused at
MISREAD_LINES = {
    "dup-d-line.smf": 6,
    "dup-D-line.smf": 10,
    "dup-bound.smf": 5,
    "header-and-fiber-bound.smf": 8,
    "gen-in-header.smf": 3,
    "d-in-header.smf": 3,
    "gen-in-total.smf": 8,
    "bound-in-total.smf": 9,
}


@pytest.mark.parametrize("name", sorted(MISREAD_LINES))
def test_repeated_or_misplaced_lines_are_refused(name, capsys, tmp_path):
    path = FIXTURES / "parse" / name
    line = MISREAD_LINES[name]
    with pytest.raises(ModelSyntaxError) as err:
        parse_document(path.read_text())
    assert err.value.line == line
    code, out, err_text = run(capsys, "cohomology", str(path))
    assert (code, out) == (1, "")
    assert err_text.splitlines() == [f"ModelSyntaxError: {err.value}"]
    assert f"(line {line})" in err_text
    if name == "dup-D-line.smf":
        # either D line alone is a valid fibration, and the two disagree
        verdicts = []
        for dropped in (line, line - 1):
            kept = path.read_text().splitlines()
            del kept[dropped - 1]
            one = tmp_path / f"without-{dropped}.smf"
            one.write_text("\n".join(kept) + "\n")
            code, out, _ = run(capsys, "toral-check", str(one), "--json")
            verdicts.append((code, json.loads(out)["verdict"]))
        assert verdicts == [(0, "certified"), (0, "refuted-at-bound")]


# an error the generator set raises, with the line the reader now names and
# the message it keeps
UNLOCATED_ERRORS = {
    "undeclared-d.smf": (4, "unknown generator 'y'"),
    "dup-gen.smf": (4, "generator x declared twice"),
    "base-fiber-clash.smf": (7, "generator t declared twice"),
    "base-d-in-total.smf": (7, "total differential may only be given on fiber generators, not t"),
}


@pytest.mark.parametrize("name", sorted(UNLOCATED_ERRORS))
def test_generator_errors_name_their_line(name, capsys):
    path = FIXTURES / "parse" / name
    line, message = UNLOCATED_ERRORS[name]
    code, out, err = run(capsys, "gottlieb", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"ModelSyntaxError: {message} (line {line})"]


@pytest.mark.parametrize(
    "text, line, column",
    [
        pytest.param((FIXTURES / "parse" / f"{name}.smf").read_text(), 5, 9, id=name)
        for name in ("unknown-generator", "zero-denominator", "zero-exponent")
    ]
    + [pytest.param("[space indented]\ngen a 2\ngen x 3\n  d x = a*b\n", 4, 11, id="indented")]
    + [
        pytest.param(
            (FIXTURES / "parse" / "unexpected-character.smf").read_text(), 4, 9,
            id="unexpected-character",
        )
    ],
)
def test_expression_errors_count_columns_from_the_line_start(text, line, column):
    # the offending token is b, the denominator 0, the exponent 0, b and $
    with pytest.raises(ModelSyntaxError) as err:
        parse_document(text)
    assert (err.value.line, err.value.column) == (line, column)


# a generator degree so large that no basis in it can even be counted: it is
# refused where the model is read, in one line, by every subcommand
HUGE_DEGREE_MODELS = {
    "huge-space": "[space huge]\ngen x 99999999999999999999\n",
    "huge-fibre": "[fibration huge]\n[base]\ngen t 2\n[fiber]\ngen x 99999999999999999999\n"
                  "[total]\n",
}


@pytest.mark.parametrize("name", sorted(HUGE_DEGREE_MODELS))
def test_huge_generator_degree_exits_without_traceback(name, tmp_path, capsys):
    path = tmp_path / f"{name}.smf"
    path.write_text(HUGE_DEGREE_MODELS[name])
    for cmd, real in [*((cmd, False) for cmd in SUBCOMMANDS), (IN_A_REAL_PROCESS, True)]:
        if real:
            code, out, err = subprocess_cli(cmd, str(path), timeout=10)
        else:
            code, out, err = run_within(capsys, 10, cmd, str(path))
        assert "Traceback" not in err, (cmd, err)
        # validate reports each file on stdout; the rest stop at the read
        assert code == (1 if cmd == "validate" else 2), (cmd, code, err)
        message = (out if cmd == "validate" else err).strip().splitlines()
        assert len(message) == 1 and "CombinatorialBlowup: generator x has degree" in message[0]


def test_der_homology_near_the_degree_cap_is_bounded(tmp_path):
    # a generator just under MAX_BASIS: every shift reads its degree basis
    # from one count table of the generator set, not a table of its own, and
    # with a second generator each walk over the exponents of a stops once
    # it has the one monomial a^k or a^k*x the table counts
    powers = {0: "1", 1: "a"}
    two = {49999 - 2 * k: f"(x, {powers.get(k, f'a^{k}')})" for k in range(25_000)}
    two[2] = "(a, 1)"
    for gens, timeout, nonzero in (
        ("gen x 49999\n", 10, {49999: "(x, 1)"}),
        ("gen a 2\ngen x 49999\n", 15, two),
    ):
        path = tmp_path / "near.smf"
        path.write_text("[space near]\n" + gens)
        code, out, err = subprocess_cli("der-homology", str(path), timeout=timeout)
        assert (code, err) == (0, "")
        header, *rows = out.splitlines()
        assert header == "model near" and len(rows) == 49_999
        want = [f"  n={n}  dim 1  {label}" for n, label in sorted(nonzero.items())]
        assert [row for row in rows if not row.endswith("dim 0")] == want


# ----------------------------------------------------------------------
# one parser per process, one derivation complex per der-homology model


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    # a call that parses builds its command's parser, once per process, and
    # never the full tree, which only help and usage errors need
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    rht.cli._command_parser.cache_clear()
    rht.cli._build_parser.cache_clear()
    assert main(["toral-check", fx("su4-torus.smf"), "--window", "3"]) == 0
    assert built == ["rht toral-check"]
    calls = [
        ["validate", fx("su5.smf")],
        ["homotopy", fx("su5.smf")],
        ["cohomology", fx("su5.smf"), "--max-degree", "6"],
        ["der-homology", fx("su5.smf"), "--degrees", "2"],
        ["gottlieb", fx("su5.smf")],
        ["fibre-gottlieb", fx("su5-bundle.smf")],
        ["connecting", fx("su5-bundle.smf")],
        ["les-check", fx("su5-bundle.smf"), "--degrees", "2..4"],
        ["toral-check", fx("su4-torus.smf")],
        ["depth", fx("ex47.smf")],
        ["poset", fx("ex47.smf")],
        ["enumerate", fx("fiber-3-3-3-3.smf"), fx("base-qt.smf")],
    ]
    assert [argv[0] for argv in calls] == list(SUBCOMMANDS)
    for argv in calls:
        assert main(argv) == 0, argv
    others = [f"rht {cmd}" for cmd in SUBCOMMANDS if cmd != "toral-check"]
    assert built == ["rht toral-check", *others]
    built.clear()
    for argv in calls:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert built == []
    assert rht.cli._build_parser.cache_info().currsize == 0


def exit_and_output(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help and usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_calls_are_identical(capsys):
    runs = [
        ["--help"],
        *([cmd, "--help"] for cmd in SUBCOMMANDS),
        ["frobnicate", fx("su5.smf")],
        ["gottlieb"],
        ["toral-check", fx("su4-torus.smf"), "--window", "x"],
    ]
    for argv in runs:
        first = exit_and_output(capsys, argv)
        assert first[0] in (0, 2) and (first[1] or first[2]), argv
        assert exit_and_output(capsys, argv) == first, argv
    # nothing of one call's arguments reaches the next
    torus = fx("su4-torus.smf")
    code, out, _ = exit_and_output(capsys, ["toral-check", torus, "--window", "3", "--json"])
    assert code == 0 and json.loads(out)["window"] == 3
    code, out, _ = exit_and_output(capsys, ["toral-check", torus, "--json"])
    assert code == 0 and json.loads(out)["window"] == 6


def parsed_or_printed(capsys, parse, argv):
    """What parse makes of argv: its namespace less ``command``, or the exit
    code, stdout and stderr of the help or usage error it printed."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err
    return {key: value for key, value in vars(args).items() if key != "command"}


def test_help_and_usage_errors_match_the_full_parser(capsys):
    # main parses a call with the called command's parser alone and leaves
    # help and every usage error to the full tree: byte for byte what the
    # full tree does, and the same arguments for a call that parses
    torus, su5 = fx("su4-torus.smf"), fx("su5.smf")
    runs = [
        [],
        ["--help"],
        ["-h", "toral-check"],
        *([cmd, "--help"] for cmd in SUBCOMMANDS),
        ["frobnicate", su5],
        ["gottlieb"],
        ["toral-check", torus, "--window", "x"],
        ["toral-check", torus, "--window"],
        ["gottlieb", su5, "--window", "3"],
        ["toral-check", torus, "--json=1"],
        ["toral-check", torus, "--win", "3", "--js"],
        ["toral-check", "--", torus],
        ["--", "toral-check", torus],
        # help and option-like strings where the full tree has -h and --help
        ["toral-check", torus, "-hx"],
        ["toral-check", torus, "--h"],
        ["toral-check", "-h x"],
        ["toral-check", "--window", "-h", torus],
        ["toral-check", "--", "-h"],
        ["toral-check", torus, "--window", "-5"],
        ["enumerate", torus, torus, "--re"],
        ["poset", torus, "--dot"],
    ]
    assert len(runs) == 32
    for argv in runs:
        got = parsed_or_printed(capsys, rht.cli._parse, argv)
        assert got == parsed_or_printed(capsys, rht.cli._build_parser().parse_args, argv), argv
        if not isinstance(got, dict):
            # main itself prints what the full tree prints
            assert exit_and_output(capsys, argv) == got, argv


def test_der_homology_builds_each_slice_once_per_model(capsys, monkeypatch):
    built = []
    real_init = ComplexSlice.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append((self.scope, self.degree))

    real_report = rht.cli._report_degrees
    per_model = []

    def report(args, model_name, rows, bound=None):
        per_model.append((model_name, Counter(built)))
        built.clear()
        return real_report(args, model_name, rows, bound)

    monkeypatch.setattr(ComplexSlice, "__init__", counting_init)
    monkeypatch.setattr(rht.cli, "_report_degrees", report)
    code, _, _ = run(capsys, "der-homology", fx("ex47.smf"), "--degrees", "1..12")
    assert code == 0 and len(per_model) == 3
    # ex47's three fibrations share one layout: the first builds each slice
    # once, and the others read its slices
    whole = sum((counts for _, counts in per_model), Counter())
    repeats = {key: k for key, k in whole.items() if k > 1}
    assert whole and whole == per_model[0][1] and not repeats, repeats


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(FIXTURES.glob("*.smf")) if p.name != "bad-degree.smf"],
    ids=lambda p: p.stem,
)
def test_der_homology_report_matches_per_degree_calls(capsys, path):
    code, out, _ = run(capsys, "der-homology", str(path), "--json")
    assert code == 0
    models = parse_document(path.read_text())
    docs = json_docs(out)
    assert len(docs) == len(models)
    for m, doc in zip(models, docs):
        scope = RELATIVE if isinstance(m, RelativeModel) else ABSOLUTE
        want = {}
        for n in range(1, top_shift(m) + 1):
            cx = DerComplex(m, scope)  # a fresh complex per degree
            h, basis = cx.homology(n), cx.slice(n)
            labels = [derivation_text(basis, rep) for rep in h.representatives]
            want[str(n)] = {"dim": h.dim, "basis": labels}
        assert doc["degrees"] == want, m.name


def test_cli_matches_snapshot():
    # every call of tests/cli_snapshot.py, byte for byte; regenerate with
    # `python tests/cli_snapshot.py --write` only for an intended output change
    assert differences(load_snapshot(), sweep()) == []


def test_cli_snapshot_names_each_differing_call():
    expected = load_snapshot()[:2]
    actual = [dict(entry) for entry in expected]
    actual[1]["exit"] = 99
    assert differences(expected, expected) == []
    assert differences(expected, actual) == [f"{' '.join(expected[1]['argv'])}: exit differs"]
    assert differences(expected, actual[:1]) == ["the sweep's calls differ from the snapshot's"]

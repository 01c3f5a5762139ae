"""Command-line interface: subcommands, output shapes, exit codes."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rht
import rht.catalog
from rht.cli import main

from conftest import FIXTURES


def fx(name):
    return str(FIXTURES / name)


def subprocess_cli(*argv, timeout=None):
    """Run the CLI in a fresh interpreter; returns (code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(rht.__file__).parent.parent))
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


def test_connecting_report(capsys):
    code, out, _ = run(capsys, "connecting", fx("su5-bundle.smf"))
    assert code == 0
    assert "n=3  dim 1  v1*" in out and "n=9  dim 0" in out


def test_les_check_exit_zero(capsys):
    code, out, _ = run(capsys, "les-check", fx("su5-bundle.smf"), "--degrees", "2..4")
    assert code == 0 and "exact" in out


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


def test_enumerate_windows_each_model_once(capsys, monkeypatch):
    calls = Counter()
    real = rht.catalog.finiteness_window

    def counted(model, window=6):
        calls[model.name] += 1
        return real(model, window)

    monkeypatch.setattr(rht.catalog, "finiteness_window", counted)
    code, _, err = run(
        capsys,
        "enumerate",
        fx("fiber-3-3-3-3.smf"),
        fx("base-qt.smf"),
        "--require-finite",
        "--json",
    )
    assert code == 0 and "15 fibration(s) kept" in err
    assert len(calls) >= 15
    assert set(calls.values()) == {1}


def test_enumerate_needs_two_spaces(capsys):
    code, _, err = run(capsys, "enumerate", fx("fiber-3-3-3-3.smf"))
    assert code == 1
    assert "exactly two" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["les-check", fx("ex44.smf"), "--degrees", "5..3"],
        ["les-check", fx("ex44.smf"), "--degrees", "abc"],
        ["der-homology", fx("su5.smf"), "--degrees", "0..2"],
        ["enumerate", fx("fiber-3-3-3-3.smf"), fx("base-qt.smf"), "--coeffs", "1/0"],
        ["validate", "NOT-UTF8"],
        ["gottlieb", "NOT-UTF8"],
        ["cohomology", fx("su5.smf"), "--max-degree", "-1"],
        ["toral-check", fx("su4-trivial.smf"), "--window", "0"],
        ["toral-check", fx("su4-trivial.smf"), "--window", "-2"],
        ["depth", fx("ex47.smf"), fx("ex47.smf")],
    ],
    ids=[
        "degrees-reversed",
        "degrees-not-a-number",
        "degrees-below-one",
        "coeffs-zero-denominator",
        "validate-not-utf8",
        "gottlieb-not-utf8",
        "max-degree-negative",
        "window-zero",
        "window-negative",
        "duplicate-catalog-id",
    ],
)
def test_bad_input_exits_one_without_traceback(argv, tmp_path):
    bad = tmp_path / "latin1.smf"
    bad.write_bytes("[space caf\xe9]\ngen v 3\n".encode("latin-1"))
    code, out, err = subprocess_cli(*(str(bad) if a == "NOT-UTF8" else a for a in argv))
    assert code == 1
    assert "Traceback" not in err
    assert len((err or out).strip().splitlines()) == 1


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

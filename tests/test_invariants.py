"""Gottlieb-type invariants on the worked fixtures."""

import os
import subprocess
from collections import Counter
import sys
from pathlib import Path

import pytest

import rht

from rht import (
    ABSOLUTE,
    RELATIVE,
    GenSet,
    Monomial,
    SullivanModel,
    Subspace,
    connecting_image,
    connecting_images,
    depth_of_subspaces,
    der_homology,
    fibre_gottlieb,
    finiteness_window,
    gottlieb,
    les_check,
    toral_certificate,
    trivial_fibration,
)
from rht.catalog import Catalog
from rht.derivations import ComplexSlice, boundary_matrix, der_basis
from rht.errors import BaseNotDegreeTwo, FiberMismatch, NotFiniteAtBound
from rht.invariants import _homology_at, top_shift

from conftest import load


# ----------------------------------------------------------------------
# derivation homology of the S3 x S5 x S7 x S9 model


SU5_ABSOLUTE_DIMS = {1: 1, 2: 3, 3: 1, 4: 2, 5: 1, 6: 1, 7: 1, 8: 0, 9: 1}

SU5_ABSOLUTE_REPS = {
    1: [("v4", [("v1", 1), ("v2", 1)])],
    2: [("v4", [("v3", 1)]), ("v3", [("v2", 1)]), ("v2", [("v1", 1)])],
    3: [("v1", [])],
    4: [("v3", [("v1", 1)]), ("v4", [("v2", 1)])],
    5: [("v2", [])],
    6: [("v4", [("v1", 1)])],
    7: [("v3", [])],
    8: [],
    9: [("v4", [])],
}


def pair_vector(m, n, scope, gen_name, mono_factors):
    """Coordinate vector of the derivation (gen, monomial) in the slice basis."""
    basis = der_basis(m, n, scope)
    gens = basis.value_gens
    mono = Monomial(tuple((gens.get(g).index, e) for g, e in mono_factors))
    idx = basis.index()[(gens.get(gen_name).index, mono)]
    return [1 if i == idx else 0 for i in range(basis.dim)]


def test_absolute_der_homology_dims(su5):
    dims = {n: der_homology(su5, n, ABSOLUTE).dim for n in range(1, 10)}
    assert dims == SU5_ABSOLUTE_DIMS


def test_absolute_der_homology_representatives(su5):
    # the listed (generator, monomial) pairs are cycles and span each H_n
    for n, listed in SU5_ABSOLUTE_REPS.items():
        h = _homology_at(su5, n, ABSOLUTE)
        delta = boundary_matrix(su5, n, ABSOLUTE)
        coords = []
        for gen_name, mono_factors in listed:
            vec = pair_vector(su5, n, ABSOLUTE, gen_name, mono_factors)
            assert all(v == 0 for v in delta.apply(vec)), (n, gen_name)
            coords.append(h.coords(vec))
        span = Subspace([f"h{i}" for i in range(h.dim)], coords)
        assert span.dim == h.dim == len(listed)


SU5_RELATIVE_DIMS = {1: 0, 2: 1, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1, 8: 0, 9: 1}


def test_relative_der_homology_dims(su5_bundle):
    dims = {n: der_homology(su5_bundle, n, RELATIVE).dim for n in range(1, 10)}
    assert dims == SU5_RELATIVE_DIMS


def test_relative_surviving_classes(su5_bundle):
    # (v4, v3) survives at shift 2 and (v_i, 1) at each generator degree
    h2 = _homology_at(su5_bundle, 2, RELATIVE)
    vec = pair_vector(su5_bundle, 2, RELATIVE, "v4", [("v3", 1)])
    assert any(h2.coords(vec))
    for n, gen_name in ((3, "v1"), (5, "v2"), (7, "v3"), (9, "v4")):
        h = _homology_at(su5_bundle, n, RELATIVE)
        assert h.dim == 1
        assert any(h.coords(pair_vector(su5_bundle, n, RELATIVE, gen_name, [])))


# ----------------------------------------------------------------------
# Gottlieb groups


def test_gottlieb_of_odd_product(su5):
    g = gottlieb(su5)
    assert g.dims() == {3: 1, 5: 1, 7: 1, 9: 1}
    assert g.basis_labels() == ["v1*", "v2*", "v3*", "v4*"]


def test_fibre_gottlieb_of_su5_bundle(su5_bundle):
    g = fibre_gottlieb(su5_bundle)
    assert g.basis_labels() == ["v1*", "v2*", "v3*", "v4*"]


def test_gottlieb_of_twisted_product(ex44):
    g = gottlieb(ex44)
    assert g.basis_labels() == ["w1*", "w2*", "w4*"]
    assert g.dims() == {3: 2, 7: 1}


def test_fibre_gottlieb_of_two_sphere_twist(ex44):
    assert fibre_gottlieb(ex44).basis_labels() == ["w4*"]


def test_fibre_gottlieb_chain(ex47):
    assert fibre_gottlieb(ex47["tpower"]).basis_labels() == ["w1*", "w2*", "w3*", "w4*"]
    assert fibre_gottlieb(ex47["first"]).basis_labels() == ["w3*", "w4*"]
    assert fibre_gottlieb(ex47["second"]).basis_labels() == ["w4*"]


def test_gottlieb_even_degrees_vanish_on_elliptic_fixtures(su5, ex44, ex47):
    for m in (su5, ex44, ex47["first"]):
        g = gottlieb(m)
        for n, sub in g.per_degree.items():
            if n % 2 == 0:
                assert sub.dim == 0, n


def test_trivial_fibration_gottlieb_equality(su5, ex44):
    base = SullivanModel(GenSet([("t", 2)]), {})
    for m in (su5, ex44.fiber):
        triv = trivial_fibration(m, base)
        fg = fibre_gottlieb(triv)
        g = gottlieb(m)
        for n in set(fg.per_degree) | set(g.per_degree):
            assert fg.degree(n) == g.degree(n), n


def test_top_degree_equality(su5_bundle, ex44, ex47):
    for f in (su5_bundle, ex44, ex47["first"], ex47["second"]):
        top = max(g.degree for g in f.fiber.gens)
        assert fibre_gottlieb(f).degree(top) == gottlieb(f).degree(top)


# ----------------------------------------------------------------------
# connecting images


def test_connecting_image_of_linear_part(su5_bundle):
    # D v1 = t1 and D v2 = t2 are linear, v3 and v4 are untouched
    assert connecting_image(su5_bundle, 3).basis_labels() == ["v1*"]
    assert connecting_image(su5_bundle, 5).basis_labels() == ["v2*"]
    assert connecting_image(su5_bundle, 7).dim == 0
    assert connecting_image(su5_bundle, 9).dim == 0


def test_connecting_contained_in_fibre_gottlieb(su5_bundle, ex44, ex47):
    for f in [su5_bundle, ex44] + list(ex47.values()):
        fg = fibre_gottlieb(f)
        for n, sub in connecting_images(f).items():
            assert fg.degree(n).includes(sub), (f.name, n)


def test_fibre_gottlieb_contained_in_gottlieb(su5_bundle, ex44, ex47):
    for f in [su5_bundle, ex44] + list(ex47.values()):
        g = gottlieb(f)
        fg = fibre_gottlieb(f)
        for n in fg.per_degree:
            assert g.degree(n).includes(fg.degree(n)), (f.name, n)


# ----------------------------------------------------------------------
# long exact sequence


def test_les_exact_on_su5_bundle(su5_bundle):
    report = les_check(su5_bundle, range(1, 10))
    assert report.chain_level_ok
    assert report.exact, [nd for nd in report.nodes if not nd.exact]


def test_les_exact_on_two_sphere_twist(ex44):
    report = les_check(ex44, range(1, 8))
    assert report.exact, [nd for nd in report.nodes if not nd.exact]


def test_les_rejects_bad_degrees(su5_bundle):
    with pytest.raises(ValueError):
        les_check(su5_bundle, [0, 1])
    with pytest.raises(ValueError, match="at least one degree"):
        les_check(su5_bundle, [])


def test_each_slice_is_built_once_per_call(ex47, monkeypatch):
    built = []
    real_init = ComplexSlice.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append((self.scope, self.degree))

    monkeypatch.setattr(ComplexSlice, "__init__", counting_init)
    for f in ex47.values():
        calls = {
            "les_check": lambda: les_check(f, range(1, top_shift(f) + 1)),
            "gottlieb": lambda: gottlieb(f),
            "fibre_gottlieb": lambda: fibre_gottlieb(f),
        }
        for name, call in calls.items():
            built.clear()
            call()
            repeats = {key: k for key, k in Counter(built).items() if k > 1}
            assert built and not repeats, (f.name, name, repeats)


# ----------------------------------------------------------------------
# toral certificates and finiteness


def test_toral_certificates(su4_fixtures):
    circle = toral_certificate(su4_fixtures["su4-circle"], window=8)
    assert circle.verdict == "certified" and circle.r == 1

    torus = toral_certificate(su4_fixtures["su4-torus"], window=6)
    assert torus.verdict == "certified" and torus.r == 3

    trivial = toral_certificate(su4_fixtures["su4-trivial"], window=8)
    assert trivial.verdict == "refuted-at-bound"
    assert trivial.top_nonzero == trivial.finite_through


def test_toral_requires_degree_two_base(su5_bundle):
    with pytest.raises(BaseNotDegreeTwo):
        toral_certificate(su5_bundle)


@pytest.mark.parametrize("window", [0, -2])
def test_window_below_one_is_rejected(su4_fixtures, window):
    # the vanishing range (fd, fd + window] would be empty and certify
    # su4-trivial, which a window of 6 or 8 refutes
    with pytest.raises(ValueError):
        toral_certificate(su4_fixtures["su4-trivial"], window=window)
    with pytest.raises(ValueError):
        finiteness_window(su4_fixtures["su4-trivial"], window)


def test_finiteness_window(su4_fixtures):
    finite, fd, _ = finiteness_window(su4_fixtures["su4-circle"], 6)
    assert finite and fd == 3 + 5 + 7 - 1
    finite, _, _ = finiteness_window(su4_fixtures["su4-trivial"], 6)
    assert not finite


def test_invariant_checks_survive_optimize_flag():
    # an evaluation that does not kill boundaries is not a chain map; the
    # check must raise even when python -O strips assert statements
    code = (
        "from rht.errors import NotAComplex\n"
        "from rht.invariants import _image_on_cycles\n"
        "from rht.linalg import RatMatrix\n"
        "one = RatMatrix.identity(1)\n"
        "try:\n"
        "    _image_on_cycles(one, RatMatrix.zero(0, 1), one, ('x*',))\n"
        "except NotAComplex:\n"
        "    print('NotAComplex')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(rht.__file__).parent.parent))
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "NotAComplex"


# ----------------------------------------------------------------------
# depth


def test_depth_of_subspace_families():
    frame = ("w1*", "w2*", "w3*", "w4*", "w5*")

    def span(*labels):
        return Subspace(
            frame, [[1 if f == lbl + "*" else 0 for f in frame] for lbl in labels]
        )

    family_a = {
        "all": span("w1", "w2", "w3", "w4", "w5"),
        "135": span("w1", "w3", "w5"),
        "145": span("w1", "w4", "w5"),
        "235": span("w2", "w3", "w5"),
        "245": span("w2", "w4", "w5"),
        "345": span("w3", "w4", "w5"),
        "35": span("w3", "w5"),
        "45": span("w4", "w5"),
        "5": span("w5"),
    }
    assert depth_of_subspaces(family_a).depth == 3

    family_b = {
        "all": span("w1", "w2", "w3", "w4", "w5"),
        "135": span("w1", "w3", "w5"),
        "345": span("w3", "w4", "w5"),
        "35": span("w3", "w5"),
    }
    assert depth_of_subspaces(family_b).depth == 2


def test_depth_edge_cases():
    frame = ("x*",)
    assert depth_of_subspaces({}).depth == -1
    single = depth_of_subspaces({"only": Subspace(frame, [[1]])})
    assert single.depth == 0 and single.witness == ["only"]
    # duplicates collapse to one node
    dup = depth_of_subspaces(
        {"a": Subspace(frame, [[1]]), "b": Subspace(frame, [[2]])}
    )
    assert dup.depth == 0


def test_depth_over_wedge_catalog(wedge):
    fiber = wedge["p00"].fiber
    result = depth_of_subspaces(
        Catalog(fiber, list(wedge.items())).realized_subspaces()
    )
    assert result.depth == 2
    assert result.witness == ["p00", "p10", "p11"]


def test_depth_over_catalog_fiber_mismatch(wedge, su5_bundle):
    fiber = wedge["p00"].fiber
    with pytest.raises(FiberMismatch):
        depth_of_subspaces(
            Catalog(fiber, [("odd", su5_bundle)]).realized_subspaces()
        )


def test_depth_over_catalog_finiteness_gate(su4_fixtures):
    fiber = su4_fixtures["su4-circle"].fiber
    catalog = Catalog(
        fiber,
        [
            ("circle", su4_fixtures["su4-circle"]),
            ("trivial", su4_fixtures["su4-trivial"]),
        ],
    )
    with pytest.raises(NotFiniteAtBound) as err:
        catalog.check_finite(6)
    assert "trivial" in str(err.value)

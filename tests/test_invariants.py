"""Gottlieb-type invariants on the worked fixtures."""

import os
import random
import subprocess
from collections import Counter
import sys
from pathlib import Path

import pytest

import rht
import rht.linalg
import rht.model

from rht import (
    ABSOLUTE,
    RELATIVE,
    GenSet,
    Monomial,
    RelativeModel,
    SullivanModel,
    Subspace,
    classify,
    cohomology,
    connecting_image,
    connecting_images,
    depth_of_subspaces,
    der_homology,
    fibre_gottlieb,
    finiteness_window,
    gottlieb,
    les_check,
    parse_document,
    toral_certificate,
    trivial_fibration,
)
from rht.catalog import Catalog
from rht.derivations import ComplexSlice, DerComplex
from rht.errors import BaseNotDegreeTwo, BoundExceeded, FiberMismatch, NotFiniteAtBound
from rht.invariants import top_shift
from rht.model import formal_dimension_estimate

from conftest import FIXTURES, load, random_fibration, random_space

CP3 = Path(__file__).parent.parent / "perfbench" / "cp3.smf"


def fixture_models():
    """Every model of every well-formed fixture file, and cp3.smf."""
    paths = [p for p in sorted(FIXTURES.glob("*.smf")) if p.name != "bad-degree.smf"]
    return [m for p in paths + [CP3] for m in parse_document(p.read_text())]


def total_of(m):
    return m.total if isinstance(m, RelativeModel) else m


def degree_two_base(m):
    return isinstance(m, RelativeModel) and all(g.degree == 2 for g in m.base.gens)


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
    """Sparse coordinate vector of the derivation (gen, monomial) in the slice basis."""
    basis = DerComplex(m, scope).slice(n)
    gens = basis.value_gens
    mono = Monomial(tuple((gens.get(g).index, e) for g, e in mono_factors))
    return {basis.index()[(gens.get(gen_name).index, mono)]: 1}


def test_absolute_der_homology_dims(su5):
    dims = {n: der_homology(su5, n, ABSOLUTE).dim for n in range(1, 10)}
    assert dims == SU5_ABSOLUTE_DIMS


def test_absolute_der_homology_representatives(su5):
    # the listed (generator, monomial) pairs are cycles and span each H_n
    cx = DerComplex(su5, ABSOLUTE)
    for n, listed in SU5_ABSOLUTE_REPS.items():
        h = cx.homology(n)
        delta = cx.boundary(n)
        coords = []
        for gen_name, mono_factors in listed:
            vec = pair_vector(su5, n, ABSOLUTE, gen_name, mono_factors)
            assert delta.apply(vec) == {}, (n, gen_name)
            coords.append([h.coords(vec).get(i, 0) for i in range(h.dim)])
        span = Subspace([f"h{i}" for i in range(h.dim)], coords)
        assert span.dim == h.dim == len(listed)


SU5_RELATIVE_DIMS = {1: 0, 2: 1, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1, 8: 0, 9: 1}


def test_relative_der_homology_dims(su5_bundle):
    dims = {n: der_homology(su5_bundle, n, RELATIVE).dim for n in range(1, 10)}
    assert dims == SU5_RELATIVE_DIMS


def test_relative_surviving_classes(su5_bundle):
    # (v4, v3) survives at shift 2 and (v_i, 1) at each generator degree
    cx = DerComplex(su5_bundle, RELATIVE)
    h2 = cx.homology(2)
    vec = pair_vector(su5_bundle, 2, RELATIVE, "v4", [("v3", 1)])
    assert h2.coords(vec) != {}
    for n, gen_name in ((3, "v1"), (5, "v2"), (7, "v3"), (9, "v4")):
        h = cx.homology(n)
        assert h.dim == 1
        assert h.coords(pair_vector(su5_bundle, n, RELATIVE, gen_name, [])) != {}


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


def scaling_family(k):
    """ex47's fibre over t1..tk in degree 2, twisted by D w4 = w1*w2*t1^3 + t1^9."""
    base = "".join(f"gen t{i} 2\n" for i in range(1, k + 1))
    text = (
        f"[fibration scale-{k}]\n[base]\n{base}[fiber]\n"
        "gen u 2\ngen w1 3\ngen w2 9\ngen w3 11\ngen w4 17\nd w3 = u^6\n"
        "[total]\nD w3 = u^6\nD w4 = w1*w2*t1^3 + t1^9\n"
    )
    return parse_document(text)[0]


def test_window_verdicts_match_full_cohomology():
    # the window reads only (fd, fd + window]; recompute every verdict from
    # the full cohomology in degrees 0..fd + window
    rng = random.Random(41)
    models = fixture_models() + [scaling_family(1), scaling_family(2)]
    models += [random_fibration(rng) for _ in range(12)] + [random_space(rng) for _ in range(6)]
    for m in models:
        total = total_of(m)
        fd = formal_dimension_estimate(total.gens)
        if fd is None:
            assert finiteness_window(m, 6)[:2] == (False, None), m.name
            assert classify(total, 6).cohomology_dims == {}, m.name
            continue
        windows = [w for w in (1, 3, 6) if total.bound is None or fd + w <= total.bound]
        for window in {1, 3, 6} - set(windows):
            with pytest.raises(BoundExceeded):
                finiteness_window(m, window)
        if not windows:
            continue
        coh = cohomology(total, fd + max(windows))
        dims = {n: dim for n, (dim, _) in coh.items()}
        assert classify(total, max(windows)).cohomology_dims == dims, m.name
        for window in windows:
            dims = {n: coh[n][0] for n in range(fd + window + 1)}
            want = not any(dims[n] for n in range(fd + 1, fd + window + 1))
            assert finiteness_window(m, window)[:2] == (want, fd), (m.name, window)
            if degree_two_base(m):
                top = None if want else max(n for n, dim in dims.items() if dim)
                cert = toral_certificate(m, window)
                assert cert.top_nonzero == top, (m.name, window)
                if top is not None:
                    # refuted exactly when a top class has a base-only monomial
                    base_only = any(
                        mono.exponents and all(m.is_base_index(i) for i, _ in mono.exponents)
                        for rep in coh[top][1]
                        for mono in rep.terms
                    )
                    verdict = "refuted-at-bound" if base_only else "inconclusive"
                    assert cert.verdict == verdict, (m.name, window)


def test_finiteness_window_reads_only_its_window(monkeypatch):
    bases, slices, diffs, kernels, read, built = [], [], [], [], [], []
    real_basis, real_slice, real_d = (
        rht.model.basis_in_degree, rht.model.HomologySlice, rht.model.Cochains.d
    )
    real_kernel = rht.linalg.Echelon.kernel
    real_reps = rht.linalg.HomologySlice.representatives
    real_homology = rht.model.Cochains.homology

    def counting_basis(gens, n):
        bases.append(n)
        return real_basis(gens, n)

    def counting_slice(d_in, d_out):
        slices.append(d_out)
        return real_slice(d_in, d_out)

    def counting_d(self, n):
        diffs.append((n, real_d(self, n)))
        return diffs[-1][1]

    def counting_kernel(self):
        kernels.append(self)
        return real_kernel(self)

    def reading_reps(h):
        read.append(h)
        return real_reps.fget(h)

    def recording_homology(self, n):
        built.append((n, real_homology(self, n)))
        return built[-1][1]

    monkeypatch.setattr(rht.model, "basis_in_degree", counting_basis)
    monkeypatch.setattr(rht.model, "HomologySlice", counting_slice)
    monkeypatch.setattr(rht.model.Cochains, "d", counting_d)
    monkeypatch.setattr(rht.linalg.Echelon, "kernel", counting_kernel)
    monkeypatch.setattr(rht.linalg.HomologySlice, "representatives", property(reading_reps))
    monkeypatch.setattr(rht.model.Cochains, "homology", recording_homology)
    # the verdicts need only dimensions: no kernel, no representative
    for m in fixture_models():
        try:
            finiteness_window(m, 6)
            classify(total_of(m), 6)
        except BoundExceeded:
            pass  # wedge.smf: its window passes its bound
        assert not kernels and not read, m.name
    models = [m for m in fixture_models() if degree_two_base(m)]
    assert len(models) >= 5
    for m in models:
        for window in (1, 6):
            for seen in (bases, slices, diffs):
                seen.clear()
            finite, fd, _ = finiteness_window(m, window)
            # the slice at degree n is built from d(n - 1) and d(n)
            degrees = [next(n for n, d in diffs if d is d_out) for d_out in slices]
            assert min(bases) >= fd, (m.name, window, sorted(set(bases)))
            assert degrees and min(degrees) > fd and max(degrees) <= fd + window
            assert not finite or degrees == list(range(fd + 1, fd + window + 1))
            # the certificate reads representatives in its top nonzero degree only
            read.clear()
            built.clear()
            top = toral_certificate(m, window).top_nonzero
            degrees = {n for n, h in built if any(h is r for r in read)}
            assert degrees == (set() if top is None else {top}), (m.name, window)


def test_each_degree_basis_is_built_once_per_call(monkeypatch):
    built = []
    real_basis = rht.model.basis_in_degree

    def counting_basis(gens, n):
        built.append((gens, n))
        return real_basis(gens, n)

    monkeypatch.setattr(rht.model, "basis_in_degree", counting_basis)
    for m in fixture_models():
        total = total_of(m)
        calls = {
            "cohomology": lambda: cohomology(m, total.bound or 12),
            "classify": lambda: classify(total),
            "gottlieb": lambda: gottlieb(m),
        }
        if isinstance(m, RelativeModel):
            calls["fibre_gottlieb"] = lambda: fibre_gottlieb(m)
            calls["les_check"] = lambda: les_check(m, range(1, top_shift(m) + 1))
        if degree_two_base(m):
            calls["toral_certificate"] = lambda: toral_certificate(m)
        for name, call in calls.items():
            built.clear()
            try:
                call()
            except BoundExceeded:
                pass  # wedge.smf: its window passes its bound
            repeats = {n: k for (_, n), k in Counter(built).items() if k > 1}
            assert not repeats, (m.name, name, repeats)


def test_invariant_checks_survive_optimize_flag():
    # an evaluation that does not kill boundaries is not a chain map; the
    # check must raise even when python -O strips assert statements
    code = (
        "from rht.errors import NotAComplex\n"
        "from rht.invariants import _image_on_cycles\n"
        "from rht.linalg import RatMatrix\n"
        "one = RatMatrix.from_rows([[1]])\n"
        "try:\n"
        "    _image_on_cycles(one, RatMatrix(0, [{}]), one, ('x*',))\n"
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

"""Catalogs: validation, enumeration, and poset assembly."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import rht.algebra
import rht.catalog
import rht.model
from rht import (
    AlgElement,
    Catalog,
    GenSet,
    Monomial,
    RelativeModel,
    SullivanModel,
    basis_in_degree,
    enumerate_fibrations,
    parse_fibration,
    poset_of_subspaces,
)
from rht.errors import CombinatorialBlowup, FiberMismatch, NotClosed, NotFiniteAtBound
from rht.model import trivial_fibration

from conftest import load, random_space


def qt_base():
    return SullivanModel(GenSet([("t", 2)]), {}, name="qt")


def s2_base():
    """(t, s; ds = t^2), the minimal model of S^2: a base with a differential."""
    gens = GenSet([("t", 2), ("s", 3)])
    return SullivanModel(gens, {"s": AlgElement.monomial(gens, Monomial(((0, 2),)))}, name="s2")


def odd_fiber(*degrees):
    gens = GenSet([(f"w{i+1}", d) for i, d in enumerate(degrees)])
    return SullivanModel(gens, {}, name="odd")


# ----------------------------------------------------------------------
# catalog invariants


def test_catalog_rejects_duplicate_ids(ex47):
    f = ex47["first"]
    with pytest.raises(ValueError):
        Catalog(f.fiber, [("x", f), ("x", f)])


def test_catalog_rejects_fiber_mismatch(ex47, su5_bundle):
    with pytest.raises(FiberMismatch):
        Catalog(ex47["first"].fiber, [("odd", su5_bundle)])


def test_catalog_finiteness_gate_lists_offenders(su4_fixtures):
    cat = Catalog(
        su4_fixtures["su4-circle"].fiber,
        [
            ("circle", su4_fixtures["su4-circle"]),
            ("trivial", su4_fixtures["su4-trivial"]),
        ],
    )
    with pytest.raises(NotFiniteAtBound) as err:
        cat.check_finite(6)
    assert "trivial" in str(err.value)
    subs = cat.realized_subspaces()
    assert set(subs) == {"circle", "trivial"}


def test_build_poset_of_named_fibrations(ex47):
    cat = Catalog(
        ex47["first"].fiber,
        [(name, f) for name, f in ex47.items()],
    )
    p = poset_of_subspaces(cat.realized_subspaces())
    assert [node.dim for node in p.nodes] == [4, 2, 1]
    assert p.edges == [(0, 1), (1, 2)]


# ----------------------------------------------------------------------
# enumeration


def test_enumeration_case_all_equal_degrees():
    # four S^3 factors: no w*w*t monomial has degree 4, so only t^2
    # twistings arise and every surviving entry realizes the full group
    cat = enumerate_fibrations(odd_fiber(3, 3, 3, 3), qt_base(), require_finite=True)
    assert len(cat.entries) == 15  # any nonempty subset of {w1..w4} hit by t^2
    p = poset_of_subspaces(cat.realized_subspaces())
    assert len(p.nodes) == 1 and p.nodes[0].dim == 4


def test_enumeration_case_two_realized_subspaces():
    # degrees (3,5,7,9): w1*w2 can twist w4 (degree 8 + t), w1*w3 cannot
    # appear with a base factor, and the two realized values are the full
    # group and a 2-dimensional one
    cat = enumerate_fibrations(odd_fiber(3, 5, 7, 9), qt_base(), require_finite=True)
    dims = {sub.dim for sub in cat.realized_subspaces().values()}
    assert dims == {4, 2}


def test_enumeration_is_deterministic():
    a = enumerate_fibrations(odd_fiber(3, 3, 3, 3), qt_base())
    b = enumerate_fibrations(odd_fiber(3, 3, 3, 3), qt_base())
    assert [key for key, _ in a.entries] == [key for key, _ in b.entries]


def test_enumeration_entries_round_trip():
    cat = enumerate_fibrations(odd_fiber(3, 3, 3, 3), qt_base(), require_finite=True)
    for key, entry in cat.entries[:5]:
        again = parse_fibration(entry.serialize())
        assert again.serialize() == entry.serialize()
        assert again.fiber.gens == entry.fiber.gens


def test_enumeration_discards_non_closed():
    # a twisted fiber differential constrains the admissible assignments:
    # every emitted entry must satisfy D.D = 0 by construction
    fiber = parse_fibration(
        """
[fibration seed]
[base]
gen t 2
[fiber]
gen u 4
gen x 7
d x = u^2
[total]
D x = u^2
"""
    ).fiber
    cat = enumerate_fibrations(fiber, qt_base(), require_finite=False)
    for _, entry in cat.entries:
        entry.total.validate()


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(rht.catalog, "MAX_CANDIDATES", 10)
    with pytest.raises(CombinatorialBlowup, match="exceed the cap of 10"):
        enumerate_fibrations(odd_fiber(3, 5, 9, 17), qt_base())


def test_enumeration_widened_coefficients():
    cat = enumerate_fibrations(
        odd_fiber(3, 3, 3, 3), qt_base(), coeff_set=(0, 1, -1), require_finite=True
    )
    # sign changes never change the realized subspace here
    dims = {sub.dim for sub in cat.realized_subspaces().values()}
    assert dims == {4}


COEFF_SETS = ((0, 1), (0, 1, -1), (0, 2), (0, Fraction(1, 2)))


def brute_force(fiber, base, coeff_set, most=300):
    """The enumeration by construction: every candidate is built as a
    RelativeModel, and NotClosed rejects it.  Returns (entries, number of
    candidates), or None when there are more than ``most`` candidates."""
    trivial = trivial_fibration(fiber, base)
    combined = trivial.total.gens
    slots = [
        (w.name, mono)
        for w in fiber.gens
        for mono in basis_in_degree(combined, w.degree + 1)
        if trivial.monomial_has_base(mono)
    ]
    coeffs = sorted({Fraction(0), *map(Fraction, coeff_set)}, key=lambda c: (c != 0, c))
    if len(coeffs) ** len(slots) > most:
        return None
    out = []
    for assignment in itertools.product(coeffs, repeat=len(slots)):
        diff = {w.name: trivial.total.diff_of(w.name) for w in fiber.gens}
        added = []
        for (name, mono), c in zip(slots, assignment):
            if c:
                diff[name] = diff[name] + AlgElement.monomial(combined, mono, c)
                coeff = "" if c == 1 else f"{c}*"
                added.append(f"D{name}+={coeff}{mono.format(combined)}")
        key = "; ".join(added) if added else "trivial"
        try:
            entry = RelativeModel(
                base, fiber.gens, diff, fiber_diff=dict(fiber.diff), name=key, bound=fiber.bound
            )
        except NotClosed:
            continue
        out.append((key, entry))
    return out, len(coeffs) ** len(slots)


def test_enumeration_matches_brute_force():
    # D.D = 0 decided from per-slot terms keeps exactly the candidates that
    # construct, in the same order and with the same models
    fibers = [load("fiber-3-3-3-3.smf")[0], load("fiber-3-5-9-17.smf")[0]]
    # 25 seeded random fibers; about one in six has a differential, so
    # twelve of those are drawn on purpose
    rng = random.Random(13)
    spaces = [random_space(rng, 4, 8) for _ in range(100)]
    fibers += [f for f in spaces if f.diff][:12] + [f for f in spaces if not f.diff][:13]
    ran, rejected = Counter(), 0
    for fiber in fibers:
        for base in (qt_base(), s2_base()):
            for coeff_set in COEFF_SETS:
                oracle = brute_force(fiber, base, coeff_set)
                if oracle is None:
                    continue  # the brute force would take too long
                want, candidates = oracle
                got = enumerate_fibrations(fiber, base, coeff_set).entries
                assert [k for k, _ in got] == [k for k, _ in want], (fiber.name, base.name, coeff_set)
                for (key, a), (_, b) in zip(got, want):
                    assert a.serialize() == b.serialize(), key
                ran[base.name, coeff_set] += 1
                rejected += candidates - len(want)
    # every base and coefficient set ran on several fibers, and most
    # candidates were rejected
    assert len(ran) == 2 * len(COEFF_SETS) and min(ran.values()) >= 5, ran
    assert rejected > 4000


def test_enumeration_builds_only_closed_candidates(monkeypatch):
    fiber, base = load("fiber-3-5-9-17.smf")[0], qt_base()
    closed = len(enumerate_fibrations(fiber, base).entries)
    built, bases = [], []
    real_init, real_basis = rht.model.RelativeModel.__init__, rht.algebra.basis_in_degree

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    def counting_basis(gens, n):
        bases.append((gens, n))
        return real_basis(gens, n)

    monkeypatch.setattr(rht.model.RelativeModel, "__init__", counting_init)
    monkeypatch.setattr(rht.algebra, "basis_in_degree", counting_basis)
    cat = enumerate_fibrations(fiber, base, require_finite=True)
    cat.realized_subspaces()
    # the trivial fibration, then each closed candidate once
    assert len(built) == 1 + closed and 0 < len(cat.entries) < closed < 2**8
    # every entry shares one generator set, and so each of its degree bases
    totals = {id(entry.total.gens) for _, entry in cat.entries}
    assert len(totals) == 1
    gens = cat.entries[0][1].total.gens
    per_degree = Counter(n for g, n in bases if g == gens)
    assert per_degree and max(per_degree.values()) == 1, per_degree

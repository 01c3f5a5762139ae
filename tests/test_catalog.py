"""Catalogs: validation, enumeration, and poset assembly."""

import pytest

import rht.catalog
from rht import (
    Catalog,
    GenSet,
    SullivanModel,
    enumerate_fibrations,
    parse_fibration,
    poset_of_subspaces,
)
from rht.errors import CombinatorialBlowup, FiberMismatch, NotFiniteAtBound

from conftest import load


def qt_base():
    return SullivanModel(GenSet([("t", 2)]), {}, name="qt")


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

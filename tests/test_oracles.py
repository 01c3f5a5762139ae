"""Invariants that a published theorem fixes, on random models."""

import random

from rht import GenSet, SullivanModel, gottlieb
from rht.invariants import _pure_quotient_vanishes
from rht.model import formal_dimension_estimate

from conftest import random_pure_elliptic


def test_felix_halperin_even_gottlieb_groups_vanish():
    # an elliptic space has G_n = 0 in every even degree n (Felix-Halperin,
    # Trans. AMS 273, 1982); a random pure model is read only when its pure
    # quotient certifies H finite, which is exact and needs no window
    rng = random.Random(5)
    certified = 0
    for _ in range(60):
        m = random_pure_elliptic(rng)
        fd = formal_dimension_estimate(m.gens)
        if not m.is_minimal or fd is None or not _pure_quotient_vanishes(m, fd, 1):
            continue
        certified += 1
        even = {n: s.dim for n, s in gottlieb(m).per_degree.items() if n % 2 == 0}
        assert even and not any(even.values()), (m.serialize(), even)
    assert certified >= 30, certified
    # the hypothesis is needed: S^3 x CP^infinity is not elliptic, and its
    # degree-2 generator is a Gottlieb element
    gens = GenSet([("q", 2), ("p", 3)])
    free = SullivanModel(gens, {})
    assert not _pure_quotient_vanishes(free, formal_dimension_estimate(gens), 1)
    assert gottlieb(free).dims() == {2: 1, 3: 1}

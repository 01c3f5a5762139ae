"""Invariants that a published theorem fixes, on random models."""

import random

from rht import Cochains, GenSet, SullivanModel, gottlieb, parse_model
from rht.invariants import _pure_quotient_vanishes
from rht.model import formal_dimension_estimate

from conftest import random_pure_elliptic


def test_felix_halperin_even_gottlieb_groups_vanish():
    # an elliptic space has G_n = 0 in every even degree n (Felix-Halperin,
    # Trans. AMS 273, 1982); a random pure model is read only when its pure
    # quotient certifies H finite, which is exact.  The window is s, the
    # largest even degree: a smaller one starts the scanned run of s degrees
    # at or below fd, where the quotient need not vanish yet (window 1
    # certifies no model with |P| = |Q|)
    rng = random.Random(5)
    certified = balanced = 0
    for _ in range(60):
        m = random_pure_elliptic(rng)
        fd = formal_dimension_estimate(m.gens)
        s = max(g.degree for g in m.gens if not g.is_odd)
        if not m.is_minimal or fd is None or not _pure_quotient_vanishes(m, fd, s):
            continue
        certified += 1
        balanced += sum(g.is_odd for g in m.gens) == sum(not g.is_odd for g in m.gens)
        even = {n: sub.dim for n, sub in gottlieb(m).per_degree.items() if n % 2 == 0}
        assert even and not any(even.values()), (m.serialize(), even)
    assert certified >= 50 and balanced >= 1, (certified, balanced)
    # the hypothesis is needed: S^3 x CP^infinity is not elliptic, and its
    # degree-2 generator is a Gottlieb element
    gens = GenSet([("q", 2), ("p", 3)])
    free = SullivanModel(gens, {})
    assert not _pure_quotient_vanishes(free, formal_dimension_estimate(gens), 2)
    assert gottlieb(free).dims() == {2: 1, 3: 1}


def test_certified_cohomology_is_a_poincare_duality_algebra():
    # H of an elliptic space is finite with Poincare duality (Halperin, Trans.
    # AMS 230, 1977): H^fd = Q, H^n = 0 above fd and dim H^n = dim H^(fd - n);
    # read on each random pure model that the pure quotient certifies at
    # window s, where fd is the formal dimension of a minimal model.  Models
    # with more than 60 cochains in degree fd + 3 are left out for time: the
    # few of them at this seed take about 2 s of elimination
    rng = random.Random(5)
    certified = balanced = 0
    for _ in range(60):
        m = random_pure_elliptic(rng)
        fd = formal_dimension_estimate(m.gens)
        s = max(g.degree for g in m.gens if not g.is_odd)
        if not m.is_minimal or fd is None or not _pure_quotient_vanishes(m, fd, s):
            continue
        cx = Cochains(m)
        if len(cx.keys(fd + 3)) > 60:
            continue
        certified += 1
        balanced += sum(g.is_odd for g in m.gens) == sum(not g.is_odd for g in m.gens)
        dims = [cx.homology(n).dim for n in range(fd + 4)]
        assert dims[0] == dims[fd] == 1 and not any(dims[fd + 1 :]), (m.serialize(), dims)
        assert dims[: fd + 1] == dims[fd::-1], (m.serialize(), dims)
    assert certified >= 45 and balanced >= 1, (certified, balanced)


def test_classical_gottlieb_groups():
    # the classical rational values: G_* = pi_* when d = 0, G_*(S^2n) is
    # pi_{4n-1} alone and G_*(CP^n) is pi_{2n+1} alone; models written inline
    free = parse_model("[space free]\ngen a 2\ngen b 3\ngen c 4\ngen e 5")
    assert gottlieb(free).dims() == {2: 1, 3: 1, 4: 1, 5: 1}
    for n in range(1, 5):
        sphere = parse_model(f"[space s{2 * n}]\ngen x {2 * n}\ngen y {4 * n - 1}\nd y = x^2")
        assert gottlieb(sphere).dims() == {4 * n - 1: 1}, n
        projective = parse_model(f"[space cp{n}]\ngen x 2\ngen y {2 * n + 1}\nd y = x^{n + 1}")
        assert gottlieb(projective).dims() == {2 * n + 1: 1}, n
    # a space given twice, the second time with u replaced by u - yz, whose d
    # squares to zero only under the Koszul signs: y*, z* and w* are Gottlieb,
    # x* is not (a derivation sending x to 1 sends dy = x^2 to 2x) and u* is
    # not (one sending u to 1 sends dw to -x, and w has no degree-1 value)
    gens = "gen x 2\ngen y 3\ngen z 3\ngen u 6\ngen w 7\nd y = x^2\n"
    split = parse_model(f"[space a]\n{gens}d w = -x^4 - x*u")
    twisted = parse_model(f"[space b]\n{gens}d u = -x^2*z\nd w = -x^4 - x*y*z - x*u")
    assert gottlieb(split).dims() == gottlieb(twisted).dims() == {3: 2, 7: 1}

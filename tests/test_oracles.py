"""Invariants that a published theorem fixes, on random models and classical homogeneous spaces."""

import math
import random

from rht import Cochains, GenSet, RelativeModel, SullivanModel, gottlieb, parse_model
from rht.invariants import _pure_quotient_vanishes, finiteness_window, toral_certificate
from rht.model import formal_dimension_estimate

from conftest import (
    fixture_models,
    flag_manifold,
    grassmannian,
    random_pure_elliptic,
    scaling_family,
    spaces_of,
)


def cohomology_dims(m: SullivanModel, top: int) -> list[int]:
    """dim H^n of m for n = 0..top."""
    return [h.dim for _, h in Cochains(m).slices(range(top + 1))]


def gaussian_binomial(n: int, k: int) -> list[int]:
    """The coefficients of [n choose k] in q, by [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k == 0 or k == n:
        return [1]
    low, high = gaussian_binomial(n - 1, k - 1), [0] * k + gaussian_binomial(n - 1, k)
    return [a + b for a, b in zip(low + [0] * len(high), high)]


def f0_series(m: SullivanModel, top: int) -> list[int]:
    """The coefficients of t^0..t^top in prod(1 - t^(|p|+1)) / prod(1 - t^|q|),
    over the odd generators p and the even ones q of m."""
    series = [1] + [0] * top
    for g in m.gens:
        if g.is_odd:  # times 1 - t^(|p|+1)
            d = g.degree + 1
            series = [c - (series[i - d] if i >= d else 0) for i, c in enumerate(series)]
        else:  # divided by 1 - t^|q|
            for i in range(g.degree, top + 1):
                series[i] += series[i - g.degree]
    return series


def certified_pure_models(seed: int, count: int = 60):
    """The random pure minimal models of a seed that the pure quotient
    certifies finite at window s, the largest even degree, with their fd."""
    rng = random.Random(seed)
    for _ in range(count):
        m = random_pure_elliptic(rng)
        fd = formal_dimension_estimate(m.gens)
        s = max(g.degree for g in m.gens if not g.is_odd)
        if m.is_minimal and fd is not None and _pure_quotient_vanishes(m, fd, s):
            yield m, fd


def test_felix_halperin_even_gottlieb_groups_vanish():
    # an elliptic space has G_n = 0 in every even degree n (Felix-Halperin,
    # Trans. AMS 273, 1982); a random pure model is read only when its pure
    # quotient certifies H finite, which is exact.  The window is s, the
    # largest even degree: a smaller one starts the scanned run of s degrees
    # at or below fd, where the quotient need not vanish yet (window 1
    # certifies no model with |P| = |Q|)
    certified = balanced = 0
    for m, fd in certified_pure_models(5):
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
    certified = balanced = 0
    for m, fd in certified_pure_models(5):
        cx = Cochains(m)
        if len(cx.keys(fd + 3)) > 60:
            continue
        certified += 1
        balanced += sum(g.is_odd for g in m.gens) == sum(not g.is_odd for g in m.gens)
        dims = [h.dim for _, h in cx.slices(range(fd + 4))]
        assert dims[0] == dims[fd] == 1 and not any(dims[fd + 1 :]), (m.serialize(), dims)
        assert dims[: fd + 1] == dims[fd::-1], (m.serialize(), dims)
    assert certified >= 45 and balanced >= 1, (certified, balanced)


def test_named_finite_models_have_no_even_gottlieb_group_and_poincare_duality():
    # the two oracles above on every unbounded space and total among the
    # fixtures and scaling_family for k <= 3, plain and connected, read when
    # finiteness_window calls it finite and it is minimal: the formal
    # dimension estimate is the formal dimension only of a minimal model,
    # and gottlieb refuses the non-minimal su5-bundle total.  H is read
    # through fd + 1; the window has read it on (fd, fd + 6]
    named = fixture_models() + [scaling_family(k, c) for k in range(1, 4) for c in (False, True)]
    read = 0
    for m in spaces_of(named):
        if m.bound is not None:
            continue
        verdict = finiteness_window(m, 6)
        if not (verdict.finite and m.is_minimal):
            continue
        read += 1
        even = {n: sub.dim for n, sub in gottlieb(m).per_degree.items() if n % 2 == 0}
        assert not any(even.values()), (m.serialize(), even)
        fd = verdict.fd
        dims = cohomology_dims(m, fd + 1)
        assert dims[0] == dims[fd] == 1 and not dims[fd + 1], (m.serialize(), dims)
        assert dims[: fd + 1] == dims[fd::-1], (m.serialize(), dims)
    assert read >= 25, read


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


def test_grassmannians_and_flag_manifolds_have_their_classical_cohomology():
    # H(Gr_k(C^n)) has Poincare polynomial [n choose k] in t^2 and
    # fd = 2k(n - k); H(Fl(n)) has dimension n! and fd = n(n - 1); read
    # through fd + 2, where H must already be zero
    for k in range(1, 4):
        for n in range(k + 1, 8):
            m = grassmannian(k, n)
            fd = formal_dimension_estimate(m.gens)
            assert fd == 2 * k * (n - k), m.name
            want = [0] * (fd + 3)
            for i, c in enumerate(gaussian_binomial(n, k)):
                want[2 * i] = c
            assert cohomology_dims(m, fd + 2) == want, m.name
    for n in range(2, 6):
        m = flag_manifold(n)
        fd = formal_dimension_estimate(m.gens)
        dims = cohomology_dims(m, fd + 2)
        assert fd == n * (n - 1) and sum(dims) == math.factorial(n), (m.name, dims)
        assert dims[0] == dims[fd] == 1 and not any(dims[fd + 1 :]) and not any(dims[1::2]), dims


def test_f0_spaces_have_the_poincare_series_of_their_degrees():
    # a pure model with |P| = |Q| whose H is finite is an F_0-space: H is
    # Lambda Q/(dP), a complete intersection, with Poincare series
    # prod(1 - t^(|p|+1)) / prod(1 - t^|q|), a polynomial of degree fd
    # (Halperin, Trans. AMS 230, 1977).  Read through fd + 2 on the random
    # pure models the pure quotient certifies and on the named families;
    # models with more than 60 cochains in degree fd + 3 are left out for
    # time, as in the finite-H oracle above
    named = [grassmannian(k, n) for k in range(1, 4) for n in range(k + 1, 8)]
    named += [flag_manifold(n) for n in range(2, 6)]
    models = list(certified_pure_models(5))
    models += [(m, formal_dimension_estimate(m.gens)) for m in named]
    read = balanced = 0
    for m, fd in models:
        if sum(g.is_odd for g in m.gens) != sum(not g.is_odd for g in m.gens):
            continue
        balanced += 1
        if len(Cochains(m).keys(fd + 3)) > 60:
            continue
        read += 1
        assert cohomology_dims(m, fd + 2) == f0_series(m, fd + 2), m.serialize()
    assert read >= 35 and balanced - read <= 3, (read, balanced)


def chi_pi(m: SullivanModel) -> int:
    """The homotopy Euler characteristic dim V_even - dim V_odd."""
    return sum(-1 if g.is_odd else 1 for g in m.gens)


def test_a_finite_total_has_nonpositive_homotopy_euler_characteristic():
    # an elliptic space has chi_pi <= 0, and chi(H) > 0 exactly when
    # chi_pi = 0 (Halperin, Trans. AMS 230, 1977; Felix-Halperin-Thomas, GTM
    # 205, section 32); read on every space and total that finiteness_window
    # calls finite among the fixtures, cp3.smf, scaling_family for k <= 4 and
    # the random pure models the pure quotient certifies at window s; chi(H)
    # is read through fd on each of them but the random models with more
    # than 300 cochains in degrees 0..fd, for time
    named = fixture_models() + [scaling_family(k) for k in range(1, 5)]
    models = [(m, 6, math.inf) for m in spaces_of(named) if m.bound is None]
    models += [(m, max(g.degree for g in m.gens if not g.is_odd), 300) for m, _ in certified_pure_models(5)]
    finite, euler = [], {}  # euler: id of a model -> chi(H)
    for m, window, most in models:
        verdict = finiteness_window(m, window)
        if not verdict.finite:
            continue
        finite.append(m)
        assert chi_pi(m) <= 0, m.serialize()
        cx = Cochains(m)
        if sum(len(cx.keys(n)) for n in range(verdict.fd + 1)) <= most:
            chi = sum((-1) ** n * h.dim for n, h in cx.slices(range(verdict.fd + 1)))
            assert (chi > 0) == (chi_pi(m) == 0) and chi >= 0, (m.serialize(), chi)
            euler[id(m)] = chi
    # su4-torus is the one fixture total with chi_pi = 0, and its H has
    # dimension 24, all even; each other finite fixture total has chi = 0
    totals = [f.total for f in named if isinstance(f, RelativeModel) and f.total in finite]
    assert {f.name: (chi_pi(f), euler[id(f)]) for f in totals if chi_pi(f) == 0} == {"su4-torus": (0, 24)}
    assert all(euler[id(f)] == 0 for f in totals if f.name != "su4-torus") and len(totals) >= 8
    assert len(finite) >= 60 and sum(chi > 0 for chi in euler.values()) >= 5, len(finite)


def test_a_certified_torus_has_rank_at_most_minus_the_fibre_chi_pi():
    # a torus T^r acting almost freely on a space F with finite H has
    # r <= -chi_pi(F) (Allday-Halperin, 1978); toral_certificate's
    # "certified" claims such an action through the Borel fibration over
    # BT^r, so its r must respect the bound
    named = fixture_models() + [scaling_family(k) for k in range(1, 5)]
    certified = {}
    for f in named:
        if isinstance(f, RelativeModel) and all(g.degree == 2 for g in f.base.gens):
            cert = toral_certificate(f)
            if cert.verdict == "certified":
                assert cert.r <= -chi_pi(f.fiber), f.serialize()
                certified[f.name] = (cert.r, -chi_pi(f.fiber))
    assert certified["su4-torus"] == (3, 3) and len(certified) >= 6, certified


"""End-to-end acceptance checks, one test per criterion.

Each test covers one headline capability on its worked fixture: derivation
homology tables, Gottlieb and fibre-restricted Gottlieb groups, posets,
enumeration, toral certificates, depth, and the structural property suite.
"""

import random
import time

import pytest

from rht import (
    ABSOLUTE,
    IDEAL,
    RELATIVE,
    GenSet,
    Monomial,
    SullivanModel,
    Subspace,
    connecting_images,
    depth_of_subspaces,
    der_homology,
    enumerate_fibrations,
    fibre_gottlieb,
    gottlieb,
    les_check,
    parse_fibration,
    poset_of_subspaces,
    toral_certificate,
    trivial_fibration,
)
from rht.catalog import Catalog
from rht.derivations import DerComplex
from rht.errors import DegreeMismatch

from conftest import evaluation_matrix, map_to, product, random_fibration, random_space


def timed(limit):
    """Context manager asserting elapsed time below the stated limit.

    Uses the monotonic performance counter, so a step of the wall clock
    cannot fail or pass the check.
    """

    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            if exc[0] is None:
                assert time.perf_counter() - self.start < limit

    return _Timer()


def top_of(model):
    from rht import RelativeModel

    fiber = model.fiber if isinstance(model, RelativeModel) else model
    return max(g.degree for g in fiber.gens)


# ----------------------------------------------------------------------
# 1: absolute derivation homology of the S3 x S5 x S7 x S9 model


def test_01_absolute_derivation_homology_table(su5):
    listed = {
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
    with timed(1.0):
        cx = DerComplex(su5, ABSOLUTE)
        dims = {n: der_homology(cx, n).dim for n in range(1, 10)}
        assert dims == {1: 1, 2: 3, 3: 1, 4: 2, 5: 1, 6: 1, 7: 1, 8: 0, 9: 1}
        for n, pairs in listed.items():
            h = cx.homology(n)
            basis = cx.slice(n)
            delta = cx.boundary(n)
            vectors = []
            for gen_name, factors in pairs:
                mono = Monomial(
                    tuple((su5.gens.get(g).index, e) for g, e in factors)
                )
                idx = basis.index[(su5.gens.get(gen_name).index, su5.gens.pack(mono.exponents))]
                vec = {idx: 1}
                assert delta.apply(vec) == {}
                vectors.append(vec)
            assert h.classes(vectors, f"H_{n}").rank == h.dim == len(pairs)


# ----------------------------------------------------------------------
# 2: relative derivation homology and fibre-restricted group of the bundle


def test_02_relative_derivation_homology_and_fibre_group(su5_bundle):
    with timed(1.0):
        relative = DerComplex(su5_bundle, RELATIVE)
        dims = {n: der_homology(relative, n).dim for n in range(1, 10)}
        assert dims == {1: 0, 2: 1, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1, 8: 0, 9: 1}
        fg = fibre_gottlieb(su5_bundle)
        assert fg.total().basis_labels() == ["v1*", "v2*", "v3*", "v4*"]
        assert fg.dims() == {3: 1, 5: 1, 7: 1, 9: 1}


# ----------------------------------------------------------------------
# 3: twisted product over the two-sphere


def test_03_two_sphere_twist_groups(ex44):
    with timed(1.0):
        assert gottlieb(ex44).total().basis_labels() == ["w1*", "w2*", "w4*"]
        assert fibre_gottlieb(ex44).total().basis_labels() == ["w4*"]


# ----------------------------------------------------------------------
# 4: the chain of three fibrations with fiber S3 x S9 x CP5 x S17


def test_04_well_ordered_chain_poset(ex47):
    # the two twisted fibrations: note the 2-dimensional value has basis
    # {w3*, w4*}, matching the chain display of the source computation (its
    # in-text "Q(w2, w4)" is inconsistent with its own degree argument, and
    # (w2, 1) is not even a relative cycle here: delta sends it to a
    # nonvanishing multiple of (w4, w1*t^3))
    with timed(5.0):
        assert fibre_gottlieb(ex47["first"]).total().basis_labels() == ["w3*", "w4*"]
        assert fibre_gottlieb(ex47["second"]).total().basis_labels() == ["w4*"]
        realized = Catalog(ex47["first"].fiber, list(ex47.items())).realized_subspaces()
        p = poset_of_subspaces(realized)
        assert [node.dim for node in p.nodes] == [4, 2, 1]
        assert p.edges == [(0, 1), (1, 2)]
        assert depth_of_subspaces(realized).depth == 2


# ----------------------------------------------------------------------
# 5: twisting patterns for fiber degrees (3, 5, 7, 9) over Q[t]

FIBRE_DEGREES = (3, 5, 7, 9)


def forced_exponent(pattern_degree, target):
    """The base exponent making the pattern land in the target degree."""
    gap = target - pattern_degree
    if gap < 0 or gap % 2:
        return None
    return gap // 2


def fibration_text(body, fibre_degrees):
    gens = "".join(f"gen w{i} {d}\n" for i, d in enumerate(fibre_degrees, 1))
    return f"[fibration row]\n[base]\ngen t 2\n[fiber]\n{gens}[total]\n{body}\n"


def build_row(dw3_factors, dw4_factors, fibre_degrees):
    degrees = {f"w{i}": d for i, d in enumerate(fibre_degrees, 1)}
    lines = []
    for target_gen, factors in (("w3", dw3_factors), ("w4", dw4_factors)):
        if factors is None:
            continue
        terms = []
        for names in factors:
            pattern = sum(degrees[n] for n in names)
            exp = forced_exponent(pattern, degrees[target_gen] + 1)
            assert exp is not None, (
                f"no base exponent puts {'*'.join(names) or 't-power'}*t^c in "
                f"degree {degrees[target_gen] + 1}"
            )
            factor_part = "*".join(names)
            if exp == 0:
                terms.append(factor_part or "1")
            else:
                tpow = f"t^{exp}" if exp > 1 else "t"
                terms.append(f"{factor_part}*{tpow}" if factor_part else tpow)
        lines.append(f"D {target_gen} = " + " + ".join(terms))
    return parse_fibration(fibration_text("\n".join(lines), fibre_degrees))


# the (w2, w3) row is taken at |w4| = 13: the source table lists it at
# (3, 5, 7, 9), where no such fibration exists (see the DegreeMismatch check
# in test_05); 13 is the least |w4| at which w2*w3 twists w4 by a positive
# power of t, like the other rows (at 11 the exponent is 0 and d w4 = w2*w3
# lies in the fibre itself, which is then no longer S3 x S5 x S7 x S11)
ROWS = [
    (FIBRE_DEGREES, None, [[]], ["w1*", "w2*", "w3*", "w4*"]),
    (FIBRE_DEGREES, None, [["w1", "w2"], []], ["w3*", "w4*"]),
    (FIBRE_DEGREES, None, [["w1", "w3"], []], ["w2*", "w4*"]),
    ((3, 5, 7, 13), None, [["w2", "w3"], []], ["w1*", "w4*"]),
    (FIBRE_DEGREES, [["w1", "w2"]], [["w1", "w3"], []], ["w4*"]),
]


def test_05_twisting_pattern_table():
    with timed(2.0):
        failures = []
        for degrees, dw3, dw4, expected in ROWS:
            try:
                f = build_row(dw3, dw4, degrees)
                got = fibre_gottlieb(f).total().basis_labels()
                if got != expected:
                    failures.append(
                        f"{degrees} {dw3}/{dw4}: got {got}, expected {expected}"
                    )
            except AssertionError as exc:
                failures.append(str(exc))
        assert not failures, "; ".join(failures)
        # the source table's (w2, w3) row at fibre degrees (3, 5, 7, 9) asks
        # for D w4 = w2*w3*t^c + t^5, but |w2| + |w3| = 12 already exceeds
        # |D w4| = |w4| + 1 = 10, so no c >= 0 fits and no such fibration
        # exists; the parser must refuse the twist with or without a t
        for body in ("D w4 = w2*w3 + t^5", "D w4 = w2*w3*t + t^5"):
            with pytest.raises(DegreeMismatch):
                parse_fibration(fibration_text(body, FIBRE_DEGREES))


def test_05_supplement_heavy_product_twist_at_admissible_degrees():
    # the w2*w3 pattern needs |w4| >= |w2| + |w3| - 1; at (3, 5, 7, 13) it
    # exists and pins the fibre-restricted group to Q(w1*, w4*)
    f = parse_fibration(
        "[fibration shifted]\n[base]\ngen t 2\n[fiber]\n"
        "gen w1 3\ngen w2 5\ngen w3 7\ngen w4 13\n[total]\n"
        "D w4 = w2*w3*t + t^7\n"
    )
    assert fibre_gottlieb(f).total().basis_labels() == ["w1*", "w4*"]


# ----------------------------------------------------------------------
# 6: enumeration over Q[t] for fiber degrees (3, 5, 9, 17)


def test_06_enumeration_dimension_constraints():
    fiber = SullivanModel(
        GenSet([("w1", 3), ("w2", 5), ("w3", 9), ("w4", 17)]), {}, name="odd"
    )
    base = SullivanModel(GenSet([("t", 2)]), {}, name="qt")
    with timed(60.0):
        cat = enumerate_fibrations(fiber, base, coeff_set=(0, 1), require_finite=True)
        subs = cat.realized_subspaces()
        dims = {sub.dim for sub in subs.values()}
        assert dims <= {4, 2, 1}
        assert 3 not in dims
        if 1 in dims:
            two_dim = {sub for sub in subs.values() if sub.dim == 2}
            assert len(two_dim) >= 2


# ----------------------------------------------------------------------
# 7: toral certificates for the S3 x S5 x S7 fiber


def test_07_toral_certificates(su4_fixtures):
    with timed(5.0):
        circle = toral_certificate(su4_fixtures["su4-circle"], window=8)
        assert circle.r == 1 and circle.verdict == "certified"
        torus = toral_certificate(su4_fixtures["su4-torus"], window=6)
        assert torus.r == 3 and torus.verdict == "certified"
        trivial = toral_certificate(su4_fixtures["su4-trivial"], window=8)
        assert trivial.verdict == "refuted-at-bound"


# ----------------------------------------------------------------------
# 8: depth of realized subspace families


def test_08_depth(wedge):
    frame = ("w1*", "w2*", "w3*", "w4*", "w5*")

    def span(*labels):
        return Subspace(frame, [{frame.index(lbl + "*"): 1} for lbl in labels])

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
    family_b = {
        "all": span("w1", "w2", "w3", "w4", "w5"),
        "135": span("w1", "w3", "w5"),
        "345": span("w3", "w4", "w5"),
        "35": span("w3", "w5"),
    }
    with timed(5.0):
        assert depth_of_subspaces(family_a).depth == 3
        assert depth_of_subspaces(family_b).depth == 2
        fiber = wedge["p00"].fiber
        catalog = Catalog(fiber, list(wedge.items()))
        result = depth_of_subspaces(catalog.realized_subspaces())
        assert result.depth == 2
        chain = [fibre_gottlieb(wedge[k]).total().basis_labels() for k in result.witness]
        assert chain == [["w1*", "w2*", "w3*"], ["w2*", "w3*"], ["w3*"]]


# ----------------------------------------------------------------------
# 9: structural properties on fixtures and randomized models


def battery_space(m):
    top = top_of(m)
    cx = DerComplex(m, ABSOLUTE)
    for n in range(1, top):
        delta_next = cx.boundary(n + 1)
        assert not any(product(cx.boundary(n), delta_next))
        assert not any(product(evaluation_matrix(cx, n), delta_next))
def battery_fibration(f):
    top = top_of(f)
    for scope in (ABSOLUTE, RELATIVE, IDEAL):
        cx = DerComplex(f, scope)
        for n in range(1, top):
            assert not any(product(cx.boundary(n), cx.boundary(n + 1)))
    relative, absolute = DerComplex(f, RELATIVE), DerComplex(f, ABSOLUTE)
    for n in range(1, top):
        lhs = product(map_to(relative, absolute, n), relative.boundary(n + 1))
        rhs = product(absolute.boundary(n + 1), map_to(relative, absolute, n + 1))
        assert lhs == rhs
        assert not any(map(evaluation_matrix(absolute, n).apply, lhs))
    g = gottlieb(f)
    fg = fibre_gottlieb(f)
    for n, sub in connecting_images(f).items():
        assert fg.degree(n).includes(sub)
    for n in fg.per_degree:
        assert g.degree(n).includes(fg.degree(n))


def test_09_property_suite(su5, su5_bundle, ex44, ex47, wedge, su4_fixtures):
    with timed(30.0):
        for m in (su5, ex44.fiber, ex47["first"].fiber):
            battery_space(m)
            # even-degree Gottlieb groups vanish on these elliptic fibers
            for n, sub in gottlieb(m).per_degree.items():
                if n % 2 == 0:
                    assert sub.dim == 0
        fixture_fibrations = (
            [su5_bundle, ex44]
            + list(ex47.values())
            + list(wedge.values())
            + list(su4_fixtures.values())
        )
        for f in fixture_fibrations:
            battery_fibration(f)
            if f.fiber.is_minimal:
                top = top_of(f)
                assert fibre_gottlieb(f).degree(top) == gottlieb(f).degree(top)
        # rank identities of the ideal -> relative -> absolute sequence
        assert les_check(su5_bundle, range(1, 10)).exact
        assert les_check(ex44, range(1, 8)).exact
        # randomized small models
        rng = random.Random(2024)
        base = SullivanModel(GenSet([("t", 2)]), {})
        for _ in range(50):
            s = random_space(rng)
            battery_space(s)
            triv = trivial_fibration(s, base)
            fg = fibre_gottlieb(triv)
            g = gottlieb(s)
            for n in set(fg.per_degree) | set(g.per_degree):
                assert fg.degree(n) == g.degree(n)
        for _ in range(50):
            battery_fibration(random_fibration(rng))
        # the Leibniz extension against the dense word-by-word oracle
        from rht import AlgElement, basis_in_degree

        from conftest import apply_derivation, as_dict, derivation_of, oracle_operator

        for _ in range(10):
            s = random_space(rng)
            basis = DerComplex(s, ABSOLUTE).slice(2)
            if basis.dim == 0:
                continue
            theta = derivation_of(basis, rng.randrange(basis.dim))
            element = AlgElement.zero(s.gens)
            for mono in basis_in_degree(s.gens, rng.randint(2, 10)):
                element = element + AlgElement.monomial(s.gens, mono, rng.randint(-2, 2))
            got = apply_derivation(theta, element)
            want = oracle_operator(
                s.gens,
                {i: as_dict(v) for i, v in theta.values.items()},
                theta.shift,
                element,
            )
            assert as_dict(got) == want

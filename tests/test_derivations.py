"""Derivation complexes: bases, boundaries, and the three scopes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rht import ABSOLUTE, IDEAL, RELATIVE, AlgElement, Monomial
from rht.invariants import top_shift
from rht.derivations import DerComplex, dual_frame
from rht.errors import GeneratorSetMismatch

from conftest import (
    apply_derivation,
    as_dict,
    derivation_of,
    diff_of,
    differential,
    evaluation_matrix,
    labels,
    load,
    map_to,
    oracle_operator,
    pair,
    pairs,
    product,
    random_fibration,
    random_space,
    vector_derivation,
)


def scopes_of(m):
    from rht import RelativeModel

    return (ABSOLUTE, RELATIVE, IDEAL) if isinstance(m, RelativeModel) else (ABSOLUTE,)


def top_of(m):
    from rht import RelativeModel

    fiber = m.fiber if isinstance(m, RelativeModel) else m
    return max(g.degree for g in fiber.gens)


# ----------------------------------------------------------------------
# slice bases


def test_absolute_slice_dims_by_hand(su5):
    # shift 2 pairs (v, m) need |m| = |v| - 2: v2->3, v3->5, v4->7, each a
    # single monomial since all generators are odd
    cx = DerComplex(su5, ABSOLUTE)
    slice2 = cx.slice(2)
    assert labels(slice2) == ["(v2, v1)", "(v3, v2)", "(v4, v3)"]
    # shift 9 only (v4, 1) survives
    assert labels(cx.slice(9)) == ["(v4, 1)"]
    assert cx.slice(10).dim == 0


def test_relative_slice_contains_base_valued_pairs(su5_bundle):
    rel = DerComplex(su5_bundle, RELATIVE).slice(1)
    rel_labels = labels(rel)
    assert "(v2, t1)" in rel_labels  # base-valued pair absent from the fiber slice
    absolute = DerComplex(su5_bundle, ABSOLUTE).slice(1)
    assert all(lbl in rel_labels for lbl in labels(absolute))


def test_scope_dims_split(su5_bundle, ex44):
    for f in (su5_bundle, ex44):
        ideal, absolute, relative = (DerComplex(f, s) for s in (IDEAL, ABSOLUTE, RELATIVE))
        for n in range(0, top_of(f) + 1):
            dim_i = ideal.slice(n).dim
            dim_a = absolute.slice(n).dim
            dim_r = relative.slice(n).dim
            assert dim_i + dim_a == dim_r


def test_der_basis_negative_shift_rejected():
    m = load("wedge.smf")[0]
    # values of degree top - 0 = 7 are fine, but asking at shift -1 is not
    with pytest.raises(ValueError):
        DerComplex(m).slice(-1)


# ----------------------------------------------------------------------
# derivations as maps


def test_apply_derivation_matches_oracle(su5):
    rng = random.Random(11)
    gens = su5.gens
    cx = DerComplex(su5, ABSOLUTE)
    for _ in range(20):
        n = rng.randint(1, 6)
        basis = cx.slice(n)
        if basis.dim == 0:
            continue
        theta = derivation_of(basis, rng.randrange(basis.dim))
        # a random element of fixed degree
        from rht import basis_in_degree

        deg = rng.randint(0, 12)
        element = AlgElement.zero(gens)
        for m in basis_in_degree(gens, deg):
            element = element + AlgElement.monomial(gens, m, rng.randint(-2, 2))
        got = apply_derivation(theta, element)
        want = oracle_operator(
            gens,
            {i: as_dict(v) for i, v in theta.values.items()},
            theta.shift,
            element,
        )
        assert as_dict(got) == want


def test_apply_derivation_wrong_gens(su5, ex44):
    basis = DerComplex(su5, ABSOLUTE).slice(3)
    theta = derivation_of(basis, 0)
    with pytest.raises(GeneratorSetMismatch):
        apply_derivation(theta, AlgElement.monomial(ex44.fiber.gens, Monomial(())))


# ----------------------------------------------------------------------
# boundary operator


def check_boundary_against_definition(m, n, scope):
    """delta(theta)(g) must equal D(theta g) - (-1)^n theta(D g) for all g."""
    from rht import RelativeModel

    cx = DerComplex(m, scope)
    src = cx.slice(n)
    tgt = cx.slice(n - 1)
    matrix = cx.boundary(n)
    model = m.total if (isinstance(m, RelativeModel) and scope != ABSOLUTE) else (
        m.fiber if isinstance(m, RelativeModel) else m
    )
    domain = src.domain_gens
    sign = (-1) ** n
    for j in range(src.dim):
        theta = derivation_of(src, j)
        out = vector_derivation(tgt, matrix.columns[j])
        for g in domain:
            gv = model.gens.get(g.name)
            gen_el = AlgElement.monomial(model.gens, Monomial(((gv.index, 1),)))
            lhs = as_dict(apply_derivation(out, gen_el))
            first = as_dict(differential(model, apply_derivation(theta, gen_el)))
            second = as_dict(apply_derivation(theta, differential(model, gen_el)))
            rhs = {m: first.get(m, 0) - sign * second.get(m, 0) for m in first.keys() | second.keys()}
            assert lhs == {m: c for m, c in rhs.items() if c}, (scope, n, labels(src)[j], g.name)


def oracle_boundary_column(cx, n, j):
    """Column j of delta at shift n, assembled from oracle_operator alone."""
    model, (w, mono) = cx.model, pair(cx.slice(n), j)
    gens = model.gens
    d_values = {gens.get(name).index: as_dict(v) for name, v in model.diff.items()}
    theta = {w.index: {mono: 1}}
    column = {}
    for g in cx.domain:
        gv = gens.get(g.name)
        value = {}
        if gv.index == w.index:
            value = oracle_operator(gens, d_values, 1, AlgElement.monomial(gens, mono))
        for m, c in oracle_operator(gens, theta, n, diff_of(model, g.name)).items():
            value[m] = value.get(m, 0) - (-1) ** n * c
        for m, c in value.items():
            if c:
                column[cx.slice(n - 1).index[(gv.index, gens.pack(m.exponents))]] = c
    return column


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_boundary_matrices_match_oracle(seed):
    # every column of every boundary of a random space and a random
    # fibration, in all three scopes, against the dense word-by-word oracle
    rng = random.Random(seed)
    for m in (random_space(rng, 6), random_fibration(rng, 6)):
        for scope in scopes_of(m):
            cx = DerComplex(m, scope)
            for n in range(1, top_shift(m) + 1):
                matrix = cx.boundary(n)
                for j in range(matrix.cols):
                    got = matrix.columns[j]
                    assert got == oracle_boundary_column(cx, n, j), (m.name, scope, n, j)


def test_boundary_matches_definition(su5, su5_bundle, ex44):
    for m in (su5, su5_bundle, ex44):
        for scope in scopes_of(m):
            for n in range(1, top_of(m) + 1):
                check_boundary_against_definition(m, n, scope)


def test_boundary_squares_to_zero_on_fixtures(su5, su5_bundle, ex44, ex47, wedge):
    models = [su5, su5_bundle, ex44] + list(ex47.values()) + list(wedge.values())
    for m in models:
        for scope in scopes_of(m):
            cx = DerComplex(m, scope)
            for n in range(1, top_of(m)):
                assert not any(product(cx.boundary(n), cx.boundary(n + 1))), (m, scope, n)


def test_homology_is_built_once_per_complex(su5_bundle, ex44):
    for m in (su5_bundle, ex44):
        for scope in scopes_of(m):
            cx = DerComplex(m, scope)
            for n in range(1, top_of(m) + 1):
                assert cx.homology(n) is cx.homology(n), (m, scope, n)


def test_slice_index_is_built_once_per_slice(su5_bundle):
    # bracket indexes the target slice and positions reads the same dict
    relative, ideal = DerComplex(su5_bundle, RELATIVE), DerComplex(su5_bundle, IDEAL)
    for n in range(1, top_of(su5_bundle)):
        target = relative.slice(n)
        relative.boundary(n + 1)
        index = target.index
        ideal.positions(relative, n)
        assert target.index is index, n
        pack = target.value_gens.pack
        assert index == {(w.index, pack(m.exponents)): i for i, (w, m) in enumerate(pairs(target))}


def test_restriction_is_chain_map(su5_bundle, ex44, ex47):
    for f in [su5_bundle, ex44] + list(ex47.values()):
        relative, absolute = DerComplex(f, RELATIVE), DerComplex(f, ABSOLUTE)
        for n in range(1, top_of(f)):
            lhs = product(map_to(relative, absolute, n), relative.boundary(n + 1))
            rhs = product(absolute.boundary(n + 1), map_to(relative, absolute, n + 1))
            assert lhs == rhs, (f.name, n)


def test_inclusion_followed_by_restriction_is_zero(su5_bundle):
    ideal, relative, absolute = (DerComplex(su5_bundle, s) for s in (IDEAL, RELATIVE, ABSOLUTE))
    for n in range(0, top_of(su5_bundle) + 1):
        assert not any(product(map_to(relative, absolute, n), map_to(ideal, relative, n)))


def fixture_and_random_fibrations(su5_bundle, ex44, ex47, wedge):
    rng = random.Random(29)
    randoms = [random_fibration(rng) for _ in range(10)]
    return [su5_bundle, ex44] + list(ex47.values()) + list(wedge.values()) + randoms


def test_restriction_splits_the_section(su5_bundle, ex44, ex47, wedge):
    # the section lifts each absolute pair to the relative pair of the same
    # label, and restricting it back is the identity
    for f in fixture_and_random_fibrations(su5_bundle, ex44, ex47, wedge):
        absolute, relative = DerComplex(f, ABSOLUTE), DerComplex(f, RELATIVE)
        for n in range(0, top_of(f) + 1):
            section = map_to(absolute, relative, n)
            dim = absolute.slice(n).dim
            identity = [{i: 1} for i in range(dim)]
            assert product(map_to(relative, absolute, n), section) == identity, (f.name, n)
            rel_labels = labels(relative.slice(n))
            lifted = {
                c: rel_labels[r] for c, col in enumerate(section.columns) for r, v in col.items() if v == 1
            }
            assert lifted == dict(enumerate(labels(absolute.slice(n)))), (f.name, n)


def test_inclusion_image_is_the_base_pairs(su5_bundle, ex44, ex47, wedge):
    for f in fixture_and_random_fibrations(su5_bundle, ex44, ex47, wedge):
        base = {g.name for g in f.base.gens}
        ideal, relative = DerComplex(f, IDEAL), DerComplex(f, RELATIVE)
        for n in range(0, top_of(f) + 1):
            inc = map_to(ideal, relative, n)
            rel = relative.slice(n)
            with_base = [
                i
                for i, (_, m) in enumerate(pairs(rel))
                if any(rel.value_gens[j].name in base for j, _ in m.exponents)
            ]
            entries = {(r, c): v for c, col in enumerate(inc.columns) for r, v in col.items()}
            assert set(entries.values()) <= {1}
            assert sorted(c for _, c in entries) == list(range(inc.cols))
            assert sorted(r for r, _ in entries) == with_base, (f.name, n)
            # the projection onto the ideal pairs sends each one back to its
            # inclusion preimage and every other relative pair to None
            preimage = {r: c for r, c in entries}  # relative row -> the ideal pair landing on it
            want = [preimage.get(r) for r in range(rel.dim)]
            assert relative.positions(ideal, n) == want, (f.name, n)


def test_augmentation_picks_unit_pairs(su5):
    cx = DerComplex(su5, ABSOLUTE)
    aug = cx.evaluation(7)
    basis = cx.slice(7)
    assert dual_frame(su5, 7) == ("v3*",)
    assert isinstance(aug, list) and len(aug) == basis.dim
    # the one unit pair (v3, 1) goes to v3*, every other pair to zero
    unit_cols = [j for j, (w, m) in enumerate(pairs(basis)) if m.is_unit]
    assert [j for j, i in enumerate(aug) if i is not None] == unit_cols
    assert [aug[j] for j in unit_cols] == [0]


def test_augmentation_kills_boundaries(su5, su5_bundle):
    cx = DerComplex(su5, ABSOLUTE)
    for n in range(1, top_of(su5)):
        assert not any(product(evaluation_matrix(cx, n), cx.boundary(n + 1)))
    relative, absolute = DerComplex(su5_bundle, RELATIVE), DerComplex(su5_bundle, ABSOLUTE)
    for n in range(1, top_of(su5_bundle)):
        restricted = product(map_to(relative, absolute, n), relative.boundary(n + 1))
        assert not any(map(evaluation_matrix(absolute, n).apply, restricted))


def test_random_models_boundary_squares_to_zero():
    rng = random.Random(23)
    for _ in range(10):
        s = random_space(rng)
        cx = DerComplex(s)
        for n in range(1, top_of(s)):
            assert not any(product(cx.boundary(n), cx.boundary(n + 1)))
        f = random_fibration(rng)
        for scope in (ABSOLUTE, RELATIVE, IDEAL):
            cx = DerComplex(f, scope)
            for n in range(1, top_of(f)):
                assert not any(product(cx.boundary(n), cx.boundary(n + 1)))

"""Model construction, parsing, serialization, cohomology, classification."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rht import (
    AlgElement,
    Cochains,
    GenSet,
    Monomial,
    RelativeModel,
    SullivanModel,
    classify,
    cohomology,
    parse_document,
    parse_fibration,
    parse_model,
    trivial_fibration,
)
from rht.errors import (
    BaseDiffViolated,
    BoundExceeded,
    DegreeMismatch,
    ModelSyntaxError,
    NotClosed,
    UnknownGenerator,
)
from rht.model import formal_dimension_estimate, parse_expression

from conftest import as_dict, load, oracle_operator, random_fibration, random_space


# ----------------------------------------------------------------------
# SullivanModel invariants


def sphere_model(odd=7):
    return SullivanModel(GenSet([("x", odd)]), {})


def test_differential_degree_checked():
    gens = GenSet([("x", 3), ("y", 5)])
    with pytest.raises(DegreeMismatch):
        SullivanModel(gens, {"y": AlgElement.gen(gens, "x")})


def test_differential_closure_checked():
    gens = GenSet([("a", 2), ("x", 3), ("y", 4)])
    a = AlgElement.gen(gens, "a")
    x = AlgElement.gen(gens, "x")
    SullivanModel(gens, {"x": a * a})  # fine: d(d x) = 0
    # d y = a*x forces d(d y) = a * d(x) = a^3 != 0
    with pytest.raises(NotClosed):
        SullivanModel(gens, {"x": a * a, "y": a * x})


def test_unknown_generator_in_diff():
    gens = GenSet([("x", 3)])
    with pytest.raises(UnknownGenerator):
        SullivanModel(gens, {"zz": AlgElement.zero(gens)})


def test_minimal_and_pure_flags():
    even_sphere = parse_model(
        "[space s4]\ngen u 4\ngen x 7\nd x = u^2\n"
    )
    assert even_sphere.is_minimal and even_sphere.is_pure
    contractible = parse_model("[space c]\ngen x 3\ngen u 4\nd x = u\n")
    assert not contractible.is_minimal


def test_bound_enforced():
    m = parse_model("[space b]\ngen x 3\nbound 5\n")
    m.check_bound(5)
    with pytest.raises(BoundExceeded):
        m.check_bound(6)
    with pytest.raises(BoundExceeded):
        cohomology(m, 10)


def test_d_extends_by_leibniz():
    m = parse_model("[space s4]\ngen u 4\ngen x 7\nd x = u^2\n")
    u = AlgElement.gen(m.gens, "u")
    x = AlgElement.gen(m.gens, "x")
    assert m.d(x * u) == u * u * u
    assert m.d(x) == u * u


# ----------------------------------------------------------------------
# relative models


def test_relative_projection_and_consistency(ex44):
    # D w4 = w1*w2*v1 + w3^2 projects to d w4 = w3^2 on the fiber
    dw4 = ex44.fiber.diff_of("w4")
    w3 = AlgElement.gen(ex44.fiber.gens, "w3")
    assert dw4 == w3 * w3
    assert ex44.base.gens.by_name["v1"].degree == 2


def test_relative_rejects_base_diff_lines():
    base = SullivanModel(GenSet([("t", 2)]), {})
    fiber_gens = GenSet([("x", 3)])
    combined = GenSet([("t", 2), ("x", 3)])
    with pytest.raises(BaseDiffViolated):
        RelativeModel(base, fiber_gens, {"t": AlgElement.zero(combined)})


def test_relative_rejects_wrong_declared_fiber_diff():
    text = """
[fibration bad]
[base]
gen t 2
[fiber]
gen u 4
gen x 7
d x = u^2
[total]
D x = t^4
"""
    with pytest.raises(BaseDiffViolated):
        parse_fibration(text)


def test_relative_total_closure_checked():
    text = """
[fibration bad]
[base]
gen t 2
[fiber]
gen u 3
gen x 4
[total]
D u = t^2
D x = u*t
"""
    # D(D x) = D(u)*t = t^3 != 0
    with pytest.raises(NotClosed):
        parse_fibration(text)


def test_trivial_fibration_structure(su5):
    base = SullivanModel(GenSet([("t", 2)]), {})
    triv = trivial_fibration(su5, base)
    assert triv.fiber.gens == su5.gens
    assert triv.fiber.diff == su5.diff
    for g in su5.gens:
        assert triv.total.diff_of(g.name).is_zero()


def test_embed_and_project(su5_bundle):
    f = su5_bundle
    v1_f = AlgElement.gen(f.fiber.gens, "v1")
    t1_b = AlgElement.gen(f.base.gens, "t1")
    up = f.embed_fiber(v1_f)
    assert up.degree() == 3
    assert f.project_fiber(up) == v1_f
    assert f.project_fiber(f.embed_base(t1_b)).is_zero()
    assert f.monomial_has_base(next(iter(f.embed_base(t1_b).terms)))


# ----------------------------------------------------------------------
# parser


def test_parse_expression_terms():
    gens = GenSet([("w1", 3), ("w2", 5), ("t", 2)])
    el = parse_expression("w1*w2*t + 2/3*t^5 - t^5", gens)
    t5 = AlgElement.gen(gens, "t")
    t5 = t5 * t5 * t5 * t5 * t5
    w1w2t = (
        AlgElement.gen(gens, "w1") * AlgElement.gen(gens, "w2") * AlgElement.gen(gens, "t")
    )
    assert el == w1w2t + Fraction(-1, 3) * t5


def test_power_is_parsed_by_exponent():
    # g^e is one monomial, not e products, so a huge exponent parses at once
    gens = GenSet([("t", 2), ("x", 3)])
    start = time.perf_counter()
    el = parse_expression("t^1000000 + x^2", gens)
    assert time.perf_counter() - start < 1.0
    assert el == AlgElement.monomial(gens, Monomial(((0, 1000000),)))


def test_parse_expression_errors_carry_position():
    gens = GenSet([("x", 3)])
    with pytest.raises(ModelSyntaxError) as err:
        parse_expression("x + y", gens, line=7)
    assert "unknown generator" in str(err.value)
    assert "line 7" in str(err.value)
    with pytest.raises(ModelSyntaxError):
        parse_expression("x^0", gens)
    with pytest.raises(ModelSyntaxError):
        parse_expression("", gens)
    with pytest.raises(ModelSyntaxError):
        parse_expression("x $ x", gens)


def test_parse_document_errors():
    with pytest.raises(ModelSyntaxError):
        parse_document("[space a]\ngen x\n")
    with pytest.raises(ModelSyntaxError):
        parse_document("[base]\ngen t 2\n")
    with pytest.raises(ModelSyntaxError):
        parse_document("[fibration f]\n[base]\ngen t 2\n[fiber]\ngen x 3\n")
    with pytest.raises(ModelSyntaxError):
        parse_document("[space a]\ngen x 3\nfrobnicate\n")
    with pytest.raises(ModelSyntaxError):
        parse_model("[space a]\ngen x 3\n[space b]\ngen y 3\n")


def test_comments_and_implicit_space():
    m = parse_model("# leading comment\ngen x 3  # trailing\n")
    assert [g.name for g in m.gens] == ["x"]


def test_serialize_round_trip(su5, su5_bundle, ex44):
    for model in (su5, su5_bundle, ex44):
        text = model.serialize()
        again = parse_document(text)[0]
        assert again.serialize() == text


def test_serialize_round_trip_fixture_files():
    for name in ("ex47.smf", "wedge.smf", "su4-torus.smf"):
        for model in load(name):
            again = parse_document(model.serialize())[0]
            assert again.serialize() == model.serialize()


@pytest.mark.parametrize("bound", [0, 7])
def test_fibration_bound_survives_parse_and_serialize(bound):
    text = (
        "[fibration b]\n[base]\ngen t 2\n"
        f"[fiber]\ngen x 3\nbound {bound}\n[total]\nD x = t^2\n"
    )
    f = parse_fibration(text)
    assert f.bound == bound
    assert parse_fibration(f.serialize()).bound == bound


# ----------------------------------------------------------------------
# cohomology and classification


def test_cohomology_odd_sphere():
    coh = cohomology(sphere_model(7), 14)
    dims = {n: d for n, (d, _) in coh.items() if d}
    assert dims == {0: 1, 7: 1}


def test_cohomology_even_sphere():
    m = parse_model("[space s4]\ngen u 4\ngen x 7\nd x = u^2\n")
    coh = cohomology(m, 12)
    dims = {n: d for n, (d, _) in coh.items() if d}
    assert dims == {0: 1, 4: 1}


def test_cohomology_product_matches_kunneth(su5):
    # zero differential: H = Lambda(v1..v4), so dims are Poincare coefficients
    coh = cohomology(su5, 24)
    poly = [0] * 25
    poly[0] = 1
    for d in (3, 5, 7, 9):
        for n in range(24, d - 1, -1):
            poly[n] += poly[n - d]
    assert {n: coh[n][0] for n in range(25)} == {n: poly[n] for n in range(25)}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_differential_matrices_match_oracle(seed):
    # every column of d on a random space and on a random fibration's total
    # model against the dense word-by-word oracle
    rng = random.Random(seed)
    for m in (random_space(rng, 6), random_fibration(rng, 6).total):
        gens = m.gens
        values = {gens.get(name).index: as_dict(v) for name, v in m.diff.items()}
        cx = Cochains(m)
        for n in range(2 * max(g.degree for g in gens)):
            matrix, target = cx.d(n), cx.basis(n + 1)
            for j, mono in enumerate(cx.basis(n)):
                got = {target[r]: v for r, v in matrix.columns[j].items()}
                want = oracle_operator(gens, values, 1, AlgElement.monomial(gens, mono))
                assert got == want, (m.name, n, mono.format(gens))


def test_cohomology_representatives_are_cocycles(su4_fixtures):
    f = su4_fixtures["su4-circle"]
    coh = cohomology(f, 14)
    for n, (dim, reps) in coh.items():
        assert len(reps) == dim
        for rep in reps:
            assert f.total.d(rep).is_zero()


def test_formal_dimension_estimate():
    assert formal_dimension_estimate(GenSet([("a", 3), ("b", 5)])) == 8
    assert formal_dimension_estimate(GenSet([("t", 2), ("a", 3)])) == 2
    assert formal_dimension_estimate(GenSet([("t", 2), ("u", 4)])) is None


def test_classify_f0_space():
    m = parse_model("[space s4]\ngen u 4\ngen x 7\nd x = u^2\n")
    report = classify(m)
    assert report.chi_pi == 0
    assert report.pure and report.elliptic_at_bound and report.f0_candidate
    assert report.formal_dimension == 4


def test_classify_infinite_cohomology():
    m = parse_model("[space free]\ngen t 2\ngen x 3\n")
    report = classify(m)
    # the polynomial part survives: not elliptic in the inspected window
    assert not report.elliptic_at_bound
    assert not report.f0_candidate


@pytest.mark.parametrize("window", [0, -2])
def test_classify_rejects_window_below_one(window):
    # an empty window would report a free polynomial algebra as elliptic
    with pytest.raises(ValueError):
        classify(parse_model("[space free]\ngen t 2\ngen x 3\n"), window=window)

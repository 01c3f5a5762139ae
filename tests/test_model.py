"""Model construction, parsing, serialization, cohomology."""

import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rht.algebra
import rht.model
from rht import (
    AlgElement,
    Cochains,
    GenSet,
    Monomial,
    RelativeModel,
    SullivanModel,
    basis_in_degree,
    cohomology,
    parse_document,
    parse_fibration,
    parse_model,
    trivial_fibration,
)
from rht.catalog import Catalog
from rht.derivations import ABSOLUTE, IDEAL, RELATIVE, DerComplex
from rht.errors import (
    BaseDiffViolated,
    FiberMismatch,
    BoundExceeded,
    DegreeMismatch,
    ModelSyntaxError,
    NotClosed,
    UnknownGenerator,
)
from rht.invariants import top_shift
from rht.linalg import HomologySlice
from rht.model import formal_dimension_estimate, parse_expression

from conftest import (
    as_dict,
    cochain_text,
    derivation_text,
    load,
    oracle_operator,
    random_fibration,
    random_space,
)


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
    # the constructor is the one validation: no option skips it
    with pytest.raises(TypeError):
        SullivanModel(gens, {"x": a * a, "y": a * x}, validate=False)


def test_unknown_generator_in_diff():
    gens = GenSet([("x", 3)])
    with pytest.raises(UnknownGenerator):
        SullivanModel(gens, {"zz": AlgElement.zero(gens)})


def test_minimal_and_pure_flags():
    even_sphere = parse_model(
        "[space s4]\ngen u 4\ngen x 7\nd x = u^2\n"
    )
    assert even_sphere.is_minimal
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


def test_d_applies_the_images_built_with_the_model(monkeypatch):
    # each model turns its differential into generator images once; d, and
    # so validation, applies them without building them again
    images, models = [], []
    real_images, real_init = rht.algebra.monomial_images, SullivanModel.__init__

    def counting_images(gens, values):
        images.append(gens)
        return real_images(gens, values)

    def counting_init(self, *args, **kwargs):
        models.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(rht.algebra, "monomial_images", counting_images)
    monkeypatch.setattr(rht.model, "monomial_images", counting_images)
    monkeypatch.setattr(SullivanModel, "__init__", counting_init)
    fibrations = load("ex47.smf") + load("su5-bundle.smf")
    for f in fibrations:
        for w in f.fiber.gens:
            assert f.total.d(f.total.diff_of(w.name)).is_zero()
    assert len(models) == 3 * len(fibrations)  # base, fiber and total of each
    assert len(images) == len(models)


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


def test_relative_reports_the_fiber_before_the_total():
    text = """
[fibration bad]
[base]
gen t 2
[fiber]
gen u 2
gen a 3
gen x 4
[total]
D a = u^2
D x = u*a
"""
    # d(d x) = u^3 != 0 in the fiber and D(D x) = u^3 in the total: the
    # fiber's violation is the one reported
    with pytest.raises(BaseDiffViolated, match="projected fiber differential"):
        parse_fibration(text)


def test_total_shares_the_generator_set_of_its_differential(ex44, su5):
    # D given over the base-then-fiber generator set lends that set to the
    # total: the parser's [total] section and every twist of one trivial
    # fibration share it, and with it its degree bases
    assert ex44.total.diff and all(v.gens is ex44.total.gens for v in ex44.total.diff.values())
    base = SullivanModel(GenSet([("t", 2)]), {})
    gens = trivial_fibration(su5, base).total.gens
    t = AlgElement.gen(gens, "t")
    twisted = RelativeModel(base, su5.gens, {"v1": t * t})
    assert twisted.total.gens is gens
    # with no D over that layout, the total gets a set of its own
    fiber_only = RelativeModel(base, su5.gens, {})
    assert fiber_only.total.gens == gens and fiber_only.total.gens is not gens


def test_parse_document_builds_one_generator_set_per_layout():
    # the fibrations of one file share their fibre and total sets, and with
    # them their degree bases; wedge.smf's p00 has an empty [total] section
    for name in ("ex47.smf", "wedge.smf"):
        first, *rest = load(name)
        for f in rest:
            assert f.fiber.gens is first.fiber.gens, (name, f.name)
            assert f.total.gens is first.total.gens, (name, f.name)
            assert f.total.diff == {} or all(v.gens is f.total.gens for v in f.total.diff.values())
    # fibrations of two layouts get one set per layout
    fibration = "[fibration {}]\n[base]\ngen t 2\n[fiber]\ngen x {}\n[total]\nD x = t^{}\n"
    layouts = (("a", 3, 2), ("b", 5, 3), ("c", 3, 2))
    a, b, c = parse_document("".join(fibration.format(*v) for v in layouts))
    assert a.total.gens is c.total.gens and a.total.gens is not b.total.gens
    assert a.fiber.gens is c.fiber.gens and a.fiber.gens is not b.fiber.gens
    # a Catalog compares fibres by value: a fibre read from a file of its own
    # has a set of its own, and the fibrations of ex47.smf still match it
    ex47 = load("ex47.smf")
    fiber = parse_model(ex47[0].fiber.serialize())
    assert fiber.gens is not ex47[0].fiber.gens
    assert len(Catalog(fiber, [(f.name, f) for f in ex47])) == 3
    with pytest.raises(FiberMismatch):
        Catalog(fiber, [("a", a)])


def test_trivial_fibration_structure(su5):
    base = SullivanModel(GenSet([("t", 2)]), {})
    triv = trivial_fibration(su5, base)
    assert triv.fiber.gens == su5.gens
    assert triv.fiber.diff == su5.diff
    for g in su5.gens:
        assert triv.total.diff_of(g.name).is_zero()


def test_embed_and_project(su5_bundle):
    # GenSet.move embeds a fiber key in the total set and is p_V on a total
    # one; fiber_exponents is p_V on a total exponent tuple
    f = su5_bundle
    fiber, total = f.fiber.gens, f.total.gens
    v1 = ((fiber.get("v1").index, 1),)
    [up] = fiber.move([fiber.pack(v1)], total)
    assert total.unpack(up).degree(total) == 3 and total.unpack(up).format(total) == "v1"
    assert total.move([up], fiber) == [fiber.pack(v1)] and not up & total.mask(f.base_size)
    assert f.fiber_exponents(total.unpack(up).exponents) == v1
    # base generators lead the total set
    t1 = Monomial(((f.base.gens.get("t1").index, 1),))
    assert t1.format(total) == "t1" and total.unpack(total.pack(t1.exponents)) == t1
    assert total.pack(t1.exponents) & total.mask(f.base_size)
    assert total.move([total.pack(t1.exponents)], fiber) == [None]
    assert f.fiber_exponents(t1.exponents) is None


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
    w1, w2, t = (AlgElement.gen(gens, n) for n in ("w1", "w2", "t"))
    cases = {
        "w2*t*w1": -(w1 * w2 * t),  # odd factors reordered: a Koszul sign
        "w1*t*w1": AlgElement.zero(gens),  # an odd generator twice
        "2 t": 2 * t,  # a factor right after a coefficient, no '*'
        "2/3 t^2": Fraction(2, 3) * t * t,
        "--t + -+-t - - -t": t,  # repeated signs
        "3": AlgElement.unit(gens, 3),  # a bare coefficient
        "-2/4": AlgElement.unit(gens, Fraction(-1, 2)),
        "t^2 - 1/2*t*t - 1/2 t^2": AlgElement.zero(gens),  # terms that cancel
        "w1*w2 + w2*w1": AlgElement.zero(gens),
    }
    for text, want in cases.items():
        assert parse_expression(text, gens) == want, text


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


def test_fibration_bound_in_its_header_or_its_fiber():
    # the two places give the same fibration, which serializes its bound in [fiber]
    body = "[base]\ngen t 2\n[fiber]\ngen x 3\n{fiber}[total]\nD x = t^2\n"
    in_header = parse_fibration("[fibration b]\nbound 7\n" + body.format(fiber=""))
    in_fiber = parse_fibration("[fibration b]\n" + body.format(fiber="bound 7\n"))
    assert in_header.bound == in_fiber.bound == 7
    assert in_header.serialize() == in_fiber.serialize()


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
            matrix, target = cx.d(n), basis_in_degree(gens, n + 1)
            for j, mono in enumerate(basis_in_degree(gens, n)):
                got = {target[r]: v for r, v in matrix.columns[j].items()}
                want = oracle_operator(gens, values, 1, AlgElement.monomial(gens, mono))
                assert got == want, (m.name, n, mono.format(gens))


def test_cohomology_representatives_are_cocycles(su4_fixtures):
    # each printed representative reads back as a cocycle of its degree
    f = su4_fixtures["su4-circle"]
    coh = cohomology(f, 14)
    for n, (dim, reps) in coh.items():
        assert len(reps) == dim
        for rep in reps:
            element = parse_expression(rep, f.total.gens)
            assert element.degree() == n and f.total.d(element).is_zero()


# coefficients a printed representative may carry, whatever the fixtures hold
PLANTED = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4))


def planted_vector(rng: random.Random, dim: int, held=()) -> dict:
    """A sparse vector of up to five of dim entries, and every index in held,
    with PLANTED coefficients, in a shuffled insertion order."""
    indices = list({*rng.sample(range(dim), rng.randint(1, min(dim, 5))), *held})
    rng.shuffle(indices)
    return {i: rng.choice(PLANTED) for i in indices}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_printers_match_element_format(seed):
    # the slice printer and cohomology's strings are AlgElement.format of
    # the same vectors: the real representatives, and planted vectors with
    # fractional, negative and unit-monomial coefficients
    rng = random.Random(seed)
    for m in (random_space(rng), random_fibration(rng)):
        scopes = (ABSOLUTE, RELATIVE, IDEAL) if isinstance(m, RelativeModel) else (ABSOLUTE,)
        for scope in scopes:
            cx = DerComplex(m, scope)
            for n in range(1, top_shift(m) + 1):
                basis = cx.slice(n)
                if not basis.dim:
                    continue
                units = [i for i, (_, key) in enumerate(basis.keys) if key == 0]
                planted = [planted_vector(rng, basis.dim, units) for _ in range(3)]
                for v in cx.homology(n).representatives + planted:
                    assert basis.format(v) == derivation_text(basis, v), (m.name, scope, n)
        read = []  # the vectors cohomology prints, one list per degree in order
        real = HomologySlice.representatives

        def representatives(h):
            dim = h._boundaries.n  # C^n; C^0 holds only the unit
            read.append(real.fget(h) + [planted_vector(rng, dim) for _ in range(2 if dim else 0)])
            return read[-1]

        total = m.total
        with mock.patch.object(HomologySlice, "representatives", property(representatives)):
            coh = cohomology(m, min(12, total.bound or 12))
        for n, (dim, reps) in coh.items():
            keys = total.gens.keys(n)
            assert reps == [cochain_text(total.gens, keys, v) for v in read[n]], (m.name, n)


def test_formal_dimension_estimate():
    assert formal_dimension_estimate(GenSet([("a", 3), ("b", 5)])) == 8
    assert formal_dimension_estimate(GenSet([("t", 2), ("a", 3)])) == 2
    assert formal_dimension_estimate(GenSet([("t", 2), ("u", 4)])) is None

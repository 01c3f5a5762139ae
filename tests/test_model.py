"""Model construction, parsing, serialization, cohomology."""

import random
import re
import sys
import time
import weakref
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rht.cli
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
    GeneratorSetMismatch,
    ModelSyntaxError,
    NotClosed,
    UnknownGenerator,
)
from rht.invariants import top_shift
from rht.linalg import HomologySlice, RatMatrix
from rht.model import formal_dimension_estimate, parse_expression

from conftest import (
    as_dict,
    cochain_text,
    derivation_text,
    diff_of,
    differential,
    element_of,
    expression,
    fixture_texts,
    images_of,
    load,
    oracle_operator,
    packed_terms,
    random_fibration,
    random_pure_elliptic,
    random_space,
    scaling_family,
)


# ----------------------------------------------------------------------
# SullivanModel invariants


def sphere_model(odd=7):
    return SullivanModel(GenSet([("x", odd)]), {})


def test_differential_degree_checked():
    gens = GenSet([("x", 3), ("y", 5)])
    with pytest.raises(DegreeMismatch):
        SullivanModel(gens, {"y": expression(gens, "x")})


def test_differential_closure_checked():
    gens = GenSet([("a", 2), ("x", 3), ("y", 4)])
    a2, ax = expression(gens, "a^2"), expression(gens, "a*x")
    SullivanModel(gens, {"x": a2})  # fine: d(d x) = 0
    # d y = a*x forces d(d y) = a * d(x) = a^3 != 0
    with pytest.raises(NotClosed):
        SullivanModel(gens, {"x": a2, "y": ax})
    # the constructor is the one validation: no option skips it
    with pytest.raises(TypeError):
        SullivanModel(gens, {"x": a2, "y": ax}, validate=False)


def test_unknown_generator_in_diff():
    gens = GenSet([("x", 3)])
    with pytest.raises(UnknownGenerator):
        SullivanModel(gens, {"zz": AlgElement.zero(gens)})


def test_a_differential_over_another_generator_set_is_refused():
    # a value's exponents index its own set: over (w, x, y), x^2 built over
    # (x, w, y) once read d y = w^2 while serialize printed x^2, and over
    # (x, y), x^2 built over (y, x) was refused as an exponent of y
    cases = (
        ([("w", 2), ("x", 2), ("y", 3)], [("x", 2), ("w", 2), ("y", 3)]),
        ([("x", 2), ("y", 3)], [("y", 3), ("x", 2)]),
    )
    for layout, other in cases:
        gens = GenSet(layout)
        with pytest.raises(GeneratorSetMismatch, match=r"^d\(y\) is given over GenSet\("):
            SullivanModel(gens, {"y": expression(GenSet(other), "x^2")})
        # the same value over the model's own set is read as given
        m = SullivanModel(gens, {"y": expression(gens, "x^2")})
        assert parse_model(m.serialize()).serialize() == m.serialize()
        assert m.images == {gens.get("y").index: ((gens.pack(((gens.get("x").index, 2),)), 1),)}


def test_a_term_out_of_normal_form_is_refused():
    # a and b odd: the exponents ((1, 1), (0, 1)) of b*a = -a*b were stored
    # as d y = a*b, a^2 was refused as an exponent past its field, and an
    # index past the set ended in an IndexError.  Both constructors refuse
    # each in one line naming d(g) and the term.
    gens = GenSet([("a", 3), ("b", 3), ("y", 5)])
    base, total = SullivanModel(GenSet([("t", 2)]), {}), GenSet([("t", 2), ("a", 3), ("b", 3), ("y", 5)])
    cases = {
        ((1, 1), (0, 1)): ValueError,  # indices decreasing
        ((0, 1), (0, 1)): ValueError,  # an index twice
        ((0, 2),): ValueError,  # an odd generator squared
        ((0, 1), (1, 1), (2, 0)): ValueError,  # a zero exponent
        ((9, 1),): GeneratorSetMismatch,
        ((-2, 1), (0, 1)): GeneratorSetMismatch,
    }
    for exponents, error in cases.items():
        bad = {"y": AlgElement(gens, {Monomial(exponents): 1})}
        text = re.escape(f"d(y) has the term {exponents}, ")
        with pytest.raises(error, match=f"^{text}") as raised:
            SullivanModel(gens, bad)
        assert len(str(raised.value).splitlines()) == 1
        shifted = tuple((i + 1, e) for i, e in exponents)  # the same term in the total's layout
        with pytest.raises(error, match=re.escape(f"d(y) has the term {shifted}, ")):
            RelativeModel(base, gens, {"y": AlgElement(total, {Monomial(shifted): 1})})
        with pytest.raises(error, match=f"^{text}"):
            RelativeModel(base, gens, {}, fiber_diff=bad)
    # the normal form is read as given, and so is an even generator's power
    ab = AlgElement(gens, {Monomial(((0, 1), (1, 1))): 1})
    assert SullivanModel(gens, {"y": ab}).diff["y"] == ab
    t3 = AlgElement(total, {Monomial(((0, 3),)): 1})
    assert RelativeModel(base, gens, {"y": t3}).total.diff["y"] == t3


def test_minimal_and_pure_flags():
    even_sphere = parse_model(
        "[space s4]\ngen u 4\ngen x 7\nd x = u^2\n"
    )
    assert even_sphere.is_minimal
    contractible = parse_model("[space c]\ngen x 3\ngen u 4\nd x = u\n")
    assert not contractible.is_minimal


def test_diff_is_a_view_of_the_given_d_and_is_minimal_reads_keys(monkeypatch):
    # the packed images are the one form a model keeps: on every fixture
    # model and on 20 draws each of random_space, random_fibration and
    # random_pure_elliptic, the diff built from them equals the d each
    # constructor was given, a fibre's d is D with the terms that hold a base
    # generator dropped, and is_minimal agrees with a reading of the elements;
    # the reader packs its terms itself, and each fixture model, rebuilt
    # through the constructors from its views, has the images it was read with
    given = []  # (model, its d or D as given, a declared fibre d or None)
    real_space, real_relative = SullivanModel.__init__, RelativeModel.__init__

    def space(self, gens, diff=None, *args, **kwargs):
        real_space(self, gens, diff, *args, **kwargs)
        given.append((self, dict(diff or {}), None))

    def relative(self, base, fiber_gens, total_diff, fiber_diff=None, *args, **kwargs):
        real_relative(self, base, fiber_gens, total_diff, fiber_diff, *args, **kwargs)
        given.append((self, dict(total_diff), fiber_diff))

    monkeypatch.setattr(SullivanModel, "__init__", space)
    monkeypatch.setattr(RelativeModel, "__init__", relative)
    for text in fixture_texts():
        for m in parse_document(text):
            if isinstance(m, SullivanModel):
                rebuilt = [(m, SullivanModel(m.gens, dict(m.diff), m.bound, m.name))]
            else:
                names = {g.name for g in m.fiber.gens}
                D = {name: v for name, v in m.total.diff.items() if name in names}
                again = RelativeModel(m.base, m.fiber.gens, D, dict(m.fiber.diff), m.name, m.bound)
                rebuilt = [(m.fiber, again.fiber), (m.total, again.total)]
            for read, built in rebuilt:
                assert images_of(built) == images_of(read), text
    rng = random.Random(42)
    for _ in range(20):
        random_space(rng), random_fibration(rng), random_pure_elliptic(rng)
    gens = GenSet([("y", 3), ("x", 4)])
    SullivanModel(gens, {"y": expression(gens, "x")})  # d y = x is linear
    minimal = Counter()
    for m, d, declared in given:
        nonzero = {name: v for name, v in d.items() if not v.is_zero()}
        if isinstance(m, SullivanModel):
            assert m.diff == nonzero, m.serialize()
            spaces = [m]
        else:
            k, total = m.base_size, m.total.gens
            base = {name: AlgElement(total, v.terms) for name, v in m.base.diff.items()}  # base leads
            assert m.total.diff == {**base, **nonzero}, m.serialize()
            projection = {}
            for name, v in nonzero.items():
                kept = {
                    Monomial(tuple((i - k, e) for i, e in mono.exponents)): c
                    for mono, c in v.terms.items()
                    if all(i >= k for i, _ in mono.exponents)
                }
                if kept:
                    projection[name] = AlgElement(m.fiber.gens, kept)
            assert m.fiber.diff == projection, m.serialize()
            if declared is not None:
                assert m.fiber.diff == {name: v for name, v in declared.items() if not v.is_zero()}
            spaces = [m.fiber, m.total]
        for s in spaces:
            linear = any(
                len(mono.exponents) == 1 and mono.exponents[0][1] == 1
                for v in s.diff.values()
                for mono in v.terms
            )
            assert s.is_minimal is not linear, s.serialize()
            minimal[s.is_minimal] += 1
    assert not given[-1][0].is_minimal and minimal[False] >= 2 and minimal[True] > 100, minimal
    with pytest.raises(TypeError):
        given[-1][0].diff["x"] = AlgElement.zero(gens)  # the view is read-only


def test_bound_enforced():
    m = parse_model("[space b]\ngen x 3\nbound 5\n")
    m.check_bound(5)
    with pytest.raises(BoundExceeded):
        m.check_bound(6)
    with pytest.raises(BoundExceeded):
        dict(cohomology(m, 10))


def test_d_extends_by_leibniz():
    m = parse_model("[space s4]\ngen u 4\ngen x 7\nd x = u^2\n")
    assert differential(m, expression(m.gens, "x*u")) == expression(m.gens, "u^3")
    assert differential(m, expression(m.gens, "x")) == expression(m.gens, "u^2")


def test_d_applies_the_images_built_with_the_model(monkeypatch):
    # the reader makes its keys with the packed product and packs nothing;
    # the fibre's and the total's images are moved from the keys read,
    # validation (once per model) applies them without packing again, and d
    # of each D(w), applied through them, is zero.  Through the constructors,
    # each given term is packed once.
    packs, models = [], []
    real_pack, real_validate = GenSet.pack, SullivanModel.validate

    def counting_pack(gens, exponents):
        packs.append(gens)
        return real_pack(gens, exponents)

    def counting_validate(self):
        models.append(self)
        real_validate(self)

    monkeypatch.setattr(GenSet, "pack", counting_pack)
    monkeypatch.setattr(SullivanModel, "validate", counting_validate)
    fibrations = load("ex47.smf") + load("su5-bundle.smf")
    # fiber and total of each, and each file's one [base] model
    assert len({id(f.base) for f in fibrations}) == 2
    assert len(models) == 2 * len(fibrations) + 2
    assert packs == []
    for f in fibrations:
        SullivanModel(f.total.gens, dict(f.total.diff))
    assert len(packs) == sum(len(t) for f in fibrations for t in f.total.images.values()) > 0
    for f in fibrations:
        for w in f.fiber.gens:
            assert differential(f.total, diff_of(f.total, w.name)).is_zero()


# ----------------------------------------------------------------------
# relative models


def test_relative_projection_and_consistency(ex44):
    # D w4 = w1*w2*v1 + w3^2 projects to d w4 = w3^2 on the fiber
    dw4 = diff_of(ex44.fiber, "w4")
    assert dw4 == expression(ex44.fiber.gens, "w3^2")
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


def test_relative_refuses_a_differential_over_another_generator_set():
    # a declared fibre d equal to the projection of D, but built over the
    # reordered set (u, x), is refused as SullivanModel refuses one, not
    # reported as disagreeing with D; so is a D over the fibre's own set
    base = SullivanModel(GenSet([("t", 2)]), {})
    fiber_gens, total = GenSet([("x", 3), ("u", 2)]), GenSet([("t", 2), ("x", 3), ("u", 2)])
    D = {"x": expression(total, "u^2 + t^2")}
    reordered = expression(GenSet([("u", 2), ("x", 3)]), "u^2")
    with pytest.raises(GeneratorSetMismatch, match=r"^d\(x\) is given over GenSet\(u:2, x:3\), not GenSet\(x:3, u:2\)"):
        RelativeModel(base, fiber_gens, D, fiber_diff={"x": reordered})
    same = expression(fiber_gens, "u^2")
    with pytest.raises(GeneratorSetMismatch, match=r"^d\(x\) is given over GenSet\(x:3, u:2\)"):
        RelativeModel(base, fiber_gens, {"x": same})
    # the same declared d over the fibre's own set is read as given
    f = RelativeModel(base, fiber_gens, D, fiber_diff={"x": same})
    assert f.fiber.diff == {"x": same} and f.total.diff == D


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
    twisted = RelativeModel(base, su5.gens, {"v1": expression(gens, "t^2")})
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
        assert diff_of(triv.total, g.name).is_zero()


def test_embed_and_project(su5_bundle):
    # GenSet.move embeds a fiber key in the total set and is p_V on a total one
    f = su5_bundle
    fiber, total = f.fiber.gens, f.total.gens
    v1 = ((fiber.get("v1").index, 1),)
    [up] = fiber.move([fiber.pack(v1)], total)
    assert total.unpack(up).degree(total) == 3 and total.unpack(up).format(total) == "v1"
    assert total.move([up], fiber) == [fiber.pack(v1)] and not up & total.mask(f.base_size)
    # base generators lead the total set
    t1 = Monomial(((f.base.gens.get("t1").index, 1),))
    assert t1.format(total) == "t1" and total.unpack(total.pack(t1.exponents)) == t1
    assert total.pack(t1.exponents) & total.mask(f.base_size)
    assert total.move([total.pack(t1.exponents)], fiber) == [None]


# ----------------------------------------------------------------------
# parser


def test_parse_expression_terms():
    gens = GenSet([("w1", 3), ("w2", 5), ("t", 2)])
    el = parse_expression("w1*w2*t + 2/3*t^5 - t^5", gens)
    # the packed keys of w1*w2*t, t, t^2 and t^5, and of the unit
    w1w2t, t, t2, t5, unit = (gens.pack(e) for e in ([(0, 1), (1, 1), (2, 1)], [(2, 1)], [(2, 2)], [(2, 5)], []))
    assert el == {w1w2t: 1, t5: Fraction(-1, 3)}
    cases = {
        "w2*t*w1": {w1w2t: -1},  # odd factors reordered: a Koszul sign
        "w1*t*w1": {},  # an odd generator twice
        "2 t": {t: 2},  # a factor right after a coefficient, no '*'
        "2/3 t^2": {t2: Fraction(2, 3)},
        "--t + -+-t - - -t": {t: 1},  # repeated signs
        "3": {unit: 3},  # a bare coefficient
        "-2/4": {unit: Fraction(-1, 2)},
        "t^2 - 1/2*t*t - 1/2 t^2": {},  # terms that cancel
        "w1*w2 + w2*w1": {},
    }
    for text, want in cases.items():
        assert parse_expression(text, gens) == want, text


def test_power_is_parsed_by_exponent():
    # g^e is one monomial, not e products, so a huge exponent parses at once
    gens = GenSet([("t", 2), ("x", 3)])
    start = time.perf_counter()
    el = parse_expression("t^1000000 + x^2", gens)
    assert time.perf_counter() - start < 1.0
    assert el == packed_terms(AlgElement.monomial(gens, Monomial(((0, 1000000),))))


def test_a_number_past_the_conversion_limit_is_refused_at_its_column():
    # int() refuses more than 4,300 digits: a degree, bound, exponent,
    # coefficient or denominator that long is a ModelSyntaxError at its place
    long = "1" * 5000
    cases = {
        f"gen x {long}\n": (1, 7),
        f"gen x 2\n  bound  {long}\n": (2, 10),
        f"gen t 2\ngen y 5\nd y = t^{long}\n": (3, 9),
        f"gen t 2\ngen y 5\nd y = {long}*t^3\n": (3, 7),
        f"gen t 2\ngen y 5\nd y = 1/{long}*t^3\n": (3, 9),
    }
    for text, place in cases.items():
        with pytest.raises(ModelSyntaxError, match="^a number of 5000 digits") as err:
            parse_document(text)
        assert (err.value.line, err.value.column) == place, text


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
    # an exponent no packed field holds, alone or summed with the term's
    # earlier ones, is refused at its column; an odd power is zero at once
    both = GenSet([("t", 2), ("x", 3)])
    for text, col in (("t^3000000000", 3), ("x*t^2000000000*t^2000000000", 18)):
        with pytest.raises(ModelSyntaxError, match=rf"is more than 2147483647, .* \(line 4, col {col}\)"):
            parse_expression(text, both, line=4)
    assert parse_expression("x^3000000000*t", both) == {}


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
    # a name the header cannot hold is refused, naming the character; any
    # other is written quoted and read back
    for name, bad in (("a#b", "'#'"), ('a"b', "'\"'"), ("a\nb", "'\\n'"), ("a\u2028b", "'\\u2028'")):
        for model in (SullivanModel(su5.gens, su5.diff, name=name), parse_fibration(su5_bundle.serialize())):
            model.name = name
            with pytest.raises(ModelSyntaxError, match=f"holds {re.escape(bad)}, which a section header"):
                model.serialize()
    for name in ("a b", "a'b [x]", "π", "model"):
        again = parse_document(SullivanModel(su5.gens, su5.diff, name=name).serialize())[0]
        assert again.name == name


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
    coh = dict(cohomology(sphere_model(7), 14))
    dims = {n: d for n, (d, _) in coh.items() if d}
    assert dims == {0: 1, 7: 1}


def test_cohomology_even_sphere():
    m = parse_model("[space s4]\ngen u 4\ngen x 7\nd x = u^2\n")
    coh = dict(cohomology(m, 12))
    dims = {n: d for n, (d, _) in coh.items() if d}
    assert dims == {0: 1, 4: 1}


def test_cohomology_product_matches_kunneth(su5):
    # zero differential: H = Lambda(v1..v4), so dims are Poincare coefficients
    coh = dict(cohomology(su5, 24))
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


def test_cohomology_builds_each_differential_once(monkeypatch):
    # the walk hands d(n) from H^n to H^(n + 1): cohomology through N builds
    # d(-1)..d(N), N + 2 of them (2N + 2 when each slice built both of its
    # own), and a walk down the same degrees reads the same dimensions
    built, real_d = [], Cochains.d

    def counting_d(self, n):
        built.append(n)
        return real_d(self, n)

    monkeypatch.setattr(Cochains, "d", counting_d)
    models = [sphere_model(7), scaling_family(2, connected=True)] + load("su4-circle.smf")
    for m, top in zip(models, (14, 20, 14)):
        built.clear()
        coh = dict(cohomology(m, top))
        assert built == list(range(-1, top + 1)), (m.name, built)
        built.clear()
        down = Cochains(m.total).slices(range(top, -1, -1))
        assert {n: h.dim for n, h in down} == {n: dim for n, (dim, _) in coh.items()}, m.name
        assert built == [top - 1, top, *range(top - 2, -2, -1)], (m.name, built)
    # any other step is refused, also under python -O
    for step in (2, -2):
        with pytest.raises(ValueError, match="step 1 or -1"):
            next(Cochains(sphere_model(7)).slices(range(0, 10 * step, step)))


def test_cohomology_holds_at_most_two_degrees(monkeypatch, tmp_path):
    # Cochains keeps no matrix and no slice, so a pass through connected k=3
    # (C^42 has 4,537 dimensions) holds, when it builds the slice at n, the
    # slice at n - 1 it has printed and the matrices the two read.  The
    # classes of both have __slots__ without __weakref__, so subclasses
    # stand in for them
    slices, matrices, alive = weakref.WeakSet(), weakref.WeakSet(), []

    class Slice(HomologySlice):
        def __init__(self, d_in, d_out):
            super().__init__(d_in, d_out)
            slices.add(self)
            alive.append((len(slices), len(matrices)))

    class Matrix(RatMatrix):
        @classmethod
        def _trusted(cls, rows, columns):
            m = super()._trusted(rows, columns)
            matrices.add(m)
            return m

    monkeypatch.setattr(rht.model, "HomologySlice", Slice)
    monkeypatch.setattr(rht.model, "RatMatrix", Matrix)
    coh = dict(cohomology(scaling_family(3, connected=True), 42))
    assert [coh[n][0] for n in range(37, 43)] == [1080, 1134, 1188, 1242, 1296, 1350]
    assert len(alive) == 43
    assert max(n for n, _ in alive) <= 2 and max(n for _, n in alive) <= 4, alive
    # the printed rows: rht cohomology --json on Q[a, b, c] through degree 100
    # writes each degree as it comes, so whenever it writes, the strings of
    # at most two degrees are alive, the row it writes and the one before.
    # Each string cohomology prints is a str subclass that a weak set holds
    texts, real_format, counts = weakref.WeakSet(), rht.model._format_sum, []

    class Text(str):
        pass

    def recording_format(gens, terms):
        terms = list(terms)
        text = Text(real_format(gens, terms))
        text.degree = terms[0][0].degree(gens)
        texts.add(text)
        return text

    class Sink:
        """stdout that keeps nothing: it counts the degrees alive at each write"""

        def write(self, text):
            counts.append(len({t.degree for t in texts}))
            return len(text)

        def flush(self):
            pass

    path = tmp_path / "qabc.smf"
    path.write_text("[space qabc]\ngen a 2\ngen b 2\ngen c 2\n")
    monkeypatch.setattr(rht.model, "_format_sum", recording_format)
    monkeypatch.setattr(sys, "stdout", Sink())
    assert rht.cli.main(["cohomology", str(path), "--max-degree", "100", "--json"]) == 0
    assert 0 < max(counts) <= 2 and len(counts) > 51, Counter(counts)


def test_cohomology_representatives_are_cocycles(su4_fixtures):
    # each printed representative reads back as a cocycle of its degree
    f = su4_fixtures["su4-circle"]
    coh = dict(cohomology(f, 14))
    for n, (dim, reps) in coh.items():
        assert len(reps) == dim
        for rep in reps:
            element = element_of(f.total.gens, parse_expression(rep, f.total.gens))
            assert {m.degree(f.total.gens) for m in element.terms} == {n}
            assert differential(f.total, element).is_zero()


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
            coh = dict(cohomology(m, min(12, total.bound or 12)))
        for n, (dim, reps) in coh.items():
            keys = total.gens.keys(n)
            assert reps == [cochain_text(total.gens, keys, v) for v in read[n]], (m.name, n)


def test_formal_dimension_estimate():
    assert formal_dimension_estimate(GenSet([("a", 3), ("b", 5)])) == 8
    assert formal_dimension_estimate(GenSet([("t", 2), ("a", 3)])) == 2
    assert formal_dimension_estimate(GenSet([("t", 2), ("u", 4)])) is None

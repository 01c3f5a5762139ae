"""The packed Leibniz kernel against the exponent-tuple kernel it replaced.

tuple_leibniz below is that kernel as it was, kept here only as the oracle:
it takes and returns exponent tuples and reads its Koszul signs off a list
of the odd generators of the rest.  Each caller of the packed kernel
(Cochains.d, DerComplex.bracket, algebra._apply) is compared with the same
computation done by tuple_leibniz, column by column and with the same
number types, over random spaces, spaces with mostly odd generators, random
fibrations in all three scopes, and the twist images a catalog brackets
with.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rht import ABSOLUTE, IDEAL, RELATIVE, AlgElement, GenSet, Monomial, RelativeModel, SullivanModel
from rht.algebra import DIGIT, _apply, _Operator, basis_in_degree, monomial_images
from rht.derivations import DerComplex
from rht.errors import CombinatorialBlowup
from rht.invariants import top_shift
from rht.model import Cochains, formal_dimension_estimate

from conftest import load, pairs, random_fibration, random_space


def tuple_leibniz(gens, images, parity, exps):
    """_apply on one monomial's exponent tuple, keyed by exponent tuples.

    For each factor g^e with an image, one g is removed and the exponents of
    each image term are added to the rest.  The Koszul sign is
    (-1)^(parity * |factors before g|) times (-1) for every odd generator of
    the rest lying strictly between g and an odd generator of the term; the
    term is zero when one of its odd generators is already in the rest.
    """
    out = {}
    odd_prefix = 0
    for g, e in exps:
        image = images.get(g)
        if image:
            rest = dict(exps)
            if e > 1:
                rest[g] = e - 1
            else:
                del rest[g]
            odd_rest = [i for i in rest if gens.gens[i].degree % 2]
            scale = -e if parity % 2 and odd_prefix else e
            for term, c in image:
                new, sign = dict(rest), scale
                for x, ex in term:
                    if gens.gens[x].degree % 2:
                        if x in rest:
                            break
                        lo, hi = (x, g) if x < g else (g, x)
                        for i in odd_rest:
                            if lo < i < hi:
                                sign = -sign
                    new[x] = new.get(x, 0) + ex
                else:
                    key = tuple(sorted(new.items()))
                    out[key] = out.get(key, 0) + sign * c
        odd_prefix ^= e * gens.gens[g].degree % 2
    return {t: c for t, c in out.items() if c}


def typed(column):
    """A sparse column with each entry's number type, so int stays int."""
    return {r: (type(c), c) for r, c in column.items()}


def oracle_apply(gens, images, parity, element):
    out = {}
    for mono, coeff in element.terms.items():
        for t, c in tuple_leibniz(gens, images, parity, mono.exponents).items():
            out[t] = out.get(t, 0) + coeff * c
    return {Monomial(t): c for t, c in out.items() if c}


def oracle_d(model, n):
    """The columns of Cochains.d(n), indexed by the printed degree bases."""
    gens = model.gens
    index = {m.exponents: i for i, m in enumerate(basis_in_degree(gens, n + 1))}
    return [
        {index[t]: c for t, c in tuple_leibniz(gens, model.images, 1, m.exponents).items()}
        for m in (basis_in_degree(gens, n) if n >= 0 else [])
    ]


def oracle_bracket(cx, n, images):
    """The columns of cx.bracket(n, images): E(m) at w, plus each E(v)
    under the pair's derivation (w -> m), with the sign -(-1)^n."""
    src, tgt, gens = cx.slice(n), cx.slice(n - 1), cx.model.gens
    index = {(w.index, m.exponents): i for i, (w, m) in enumerate(pairs(tgt))}
    sign = -1 if n % 2 == 0 else 1
    columns = []
    for w, mono in pairs(src):
        theta = {w.index: ((mono.exponents, 1),)}
        col = {}
        for g in cx.domain:
            gi = cx.model.gens.get(g.name).index
            val = tuple_leibniz(gens, images, 1, mono.exponents) if gi == w.index else {}
            for term, c in images.get(gi, ()):
                for mm, v in tuple_leibniz(gens, theta, n, term).items():
                    val[mm] = val.get(mm, 0) + sign * c * v
            col.update((index[gi, mm], c) for mm, c in val.items() if c)
        columns.append(col)
    return columns


def odd_heavy_space(rng: random.Random) -> SullivanModel:
    """Mostly odd generators, declared in a random order, so an image holds
    generators on both sides of its own; d sends the others to products of
    the `closed` lowest ones, cocycles, so d squares to zero."""
    k = rng.randint(3, 6)
    degrees = sorted(rng.choice([3, 3, 5, 5, 7, 9, 2, 4]) for _ in range(k))
    closed = rng.randint(2, k)
    order = rng.sample(range(k), k)
    gens = GenSet([(f"x{i}", degrees[i]) for i in order])
    cocycles = {gens.get(f"x{i}").index for i in range(closed)}
    diff = {}
    for i in range(closed, k):
        g = gens.get(f"x{i}")
        terms = {
            m: rng.choice([1, -1, 2, Fraction(1, 2)])
            for m in basis_in_degree(gens, g.degree + 1)
            if len(m.word()) >= 2 and all(j in cocycles for j, _ in m.exponents) and rng.random() < 0.7
        }
        if terms:
            diff[g.name] = AlgElement(gens, terms)
    return SullivanModel(gens, diff, name=f"odd-{rng.getrandbits(24):06x}")


def twists(f: RelativeModel) -> list[dict]:
    """The images of each slot derivation theta_s of f, as a catalog brackets
    with: the fibre generator w_s sent to a monomial with a base generator,
    one per such term of a D(w_s), read from D itself."""
    gens, base = f.total.gens, set(f.base.gens.by_name)
    return [
        {gens.get(w.name).index: ((mono.exponents, 1),)}
        for w in f.fiber.gens
        for mono in f.total.diff_of(w.name).terms
        if any(gens[i].name in base for i, _ in mono.exponents)
    ]


def check_model(m) -> int:
    """Compare every caller of the kernel on m with the oracle; returns the
    number of columns compared."""
    compared = 0
    total = m.total
    top = min(formal_dimension_estimate(total.gens) or 0, 24) + 2
    cx = Cochains(total)
    for n in range(-1, top):
        got = cx.d(n).columns
        assert [typed(c) for c in got] == [typed(c) for c in oracle_d(total, n)], (m.name, n)
        compared += len(got)
    scopes = (ABSOLUTE, RELATIVE, IDEAL) if isinstance(m, RelativeModel) else (ABSOLUTE,)
    for scope in scopes:
        der = DerComplex(m, scope)
        operators = [der.model.images] + (twists(m) if scope == RELATIVE else [])
        for n in range(1, top_shift(m) + 1):
            for images in operators:
                got = der.bracket(n, images).columns
                want = oracle_bracket(der, n, images)
                assert [typed(c) for c in got] == [typed(c) for c in want], (m.name, scope, n, images)
                compared += len(got)
    return compared


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_kernel_callers_match_the_tuple_kernel(seed):
    rng = random.Random(seed)
    for m in (random_space(rng, 6), odd_heavy_space(rng), random_fibration(rng, 6)):
        check_model(m)


def test_kernel_callers_match_the_tuple_kernel_on_the_fixtures():
    # the fixture fibrations carry the twists the catalogs enumerate
    models = [
        m
        for name in ("su5.smf", "su5-bundle.smf", "ex44.smf", "ex47.smf", "wedge.smf", "su4-torus.smf")
        for m in load(name)
    ]
    assert sum(len(twists(m)) for m in models if isinstance(m, RelativeModel)) >= 5
    assert sum(check_model(m) for m in models) > 1000


@given(st.integers(0, 2**32 - 1), st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_apply_images_matches_the_tuple_kernel(seed, parity):
    # random images of random generators, odd ones mostly, on random elements
    rng = random.Random(seed)
    gens = odd_heavy_space(rng).gens
    monomials = [m for n in range(13) for m in basis_in_degree(gens, n)]
    values = {
        g.index: AlgElement(gens, {rng.choice(monomials): rng.choice([1, -2, Fraction(2, 3)]) for _ in range(3)})
        for g in gens
        if rng.random() < 0.7
    }
    images = monomial_images(gens, values)
    element = AlgElement(gens, {rng.choice(monomials): rng.randint(-3, 3) for _ in range(4)})
    got = _apply(gens, _Operator(gens, images, parity), element)
    assert got.terms == oracle_apply(gens, images, parity, element)


def test_apply_images_keeps_nothing_per_call():
    # an operator compiled for one call leaves the generator set nothing but
    # its packed layout, so many calls grow nothing, and images given as
    # lists are read as tuples are
    gens = GenSet([("x", 3), ("y", 3), ("t", 2)])
    x, y, t = (gens.get(n).index for n in "xyt")
    element = AlgElement(gens, {Monomial(((t, 2),)): 1, Monomial(((x, 1), (t, 1))): 3})
    packing = gens._packing
    layout = {name: repr(getattr(packing, name)) for name in type(packing).__slots__}
    for coeff in (2, Fraction(2), Fraction(-3, 4), *range(-20, 0)):
        images = {t: ((((x, 1),), coeff), (((y, 1),), 1))}
        got = _apply(gens, _Operator(gens, images, 1), element)
        want = oracle_apply(gens, images, 1, element)
        assert got.terms == want
        listed = _apply(gens, _Operator(gens, {t: [list(term) for term in images[t]]}, 1), element)
        assert listed.terms == want
    assert {name: repr(getattr(packing, name)) for name in type(packing).__slots__} == layout


def test_an_exponent_no_field_holds_is_refused():
    # a packed even exponent holds less than 2^(DIGIT - 1), so that a sum of
    # two never carries; 2^40 is refused with a message, not wrapped
    gens = GenSet([("t", 2), ("x", 3)])
    t = gens.get("t").index
    images = monomial_images(gens, {t: AlgElement.gen(gens, "x")})
    big = AlgElement(gens, {Monomial(((t, 2**40),)): 1})
    assert DIGIT <= 40
    with pytest.raises(CombinatorialBlowup, match=f"exponent {2**40} of t is more than"):
        _apply(gens, _Operator(gens, images, 0), big)
    # the largest exponent a field holds gives the tuple kernel's answer
    most = (1 << DIGIT - 1) - 1
    element = AlgElement(gens, {Monomial(((t, most),)): 1})
    got = _apply(gens, _Operator(gens, images, 0), element)
    assert got.terms == oracle_apply(gens, images, 0, element)
    with pytest.raises(CombinatorialBlowup):
        _apply(gens, _Operator(gens, images, 0), AlgElement(gens, {Monomial(((t, most + 1),)): 1}))

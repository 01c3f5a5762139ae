"""Graded-commutative arithmetic against independent oracles."""

import itertools
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rht import (
    AlgElement,
    GenSet,
    Generator,
    Monomial,
    basis_in_degree,
)
from rht.algebra import (
    MAX_BASIS,
    _format_terms,
)
from rht.errors import (
    CombinatorialBlowup,
    DuplicateGenerator,
    NotSimplyConnected,
    UnknownGenerator,
)

from conftest import (
    apply_images,
    as_dict,
    bubble_sign,
    monomial_images,
    normalize_word,
    oracle_mul,
    oracle_operator,
    packed,
    word_to_monomial,
)

GENS = GenSet([("a", 3), ("b", 5), ("c", 2), ("e", 4), ("f", 7)])

small_words = st.lists(st.integers(min_value=0, max_value=4), max_size=6)


def indices_to_factors(word):
    return [(i, 1) for i in word]


# ----------------------------------------------------------------------
# generators and generator sets


def test_degree_one_generator_rejected():
    with pytest.raises(NotSimplyConnected):
        GenSet([("x", 1)])


def test_duplicate_generator_rejected():
    with pytest.raises(DuplicateGenerator):
        GenSet([("x", 3), ("x", 5)])


def test_genset_value_equality():
    assert GenSet([("x", 3)]) == GenSet([("x", 3)])
    assert GenSet([("x", 3)]) != GenSet([("x", 5)])
    assert GenSet([("x", 3), ("y", 4)]) != GenSet([("y", 4), ("x", 3)])


def test_unknown_generator():
    with pytest.raises(UnknownGenerator):
        GENS.get("zz")
    with pytest.raises(UnknownGenerator):
        normalize_word(GENS, [(17, 1)])


# ----------------------------------------------------------------------
# normal form and Koszul signs


@given(small_words)
@settings(max_examples=200)
def test_normalize_matches_bubble_sort_oracle(word):
    got = normalize_word(GENS, indices_to_factors(word))
    oracle = bubble_sign(GENS, word)
    if oracle is None:
        assert got is None
    else:
        sign, sorted_word = oracle
        assert got is not None
        assert got[0] == sign
        assert got[1] == word_to_monomial(sorted_word)


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)), max_size=6))
@settings(max_examples=300)
def test_packed_product_matches_normalize_word(factors):
    # words with repeated odd and even factors, odd powers among them; the
    # reader multiplies factor by factor, from the key of the word so far
    sign, key = GENS._packing.product(factors)
    want = normalize_word(GENS, factors)
    if want is None:
        assert sign == 0
    else:
        assert (sign, GENS.unpack(key)) == want
    run, so_far = 1, 0
    for factor in factors:
        s, so_far = GENS._packing.product([factor], so_far)
        run *= s
    assert (run, so_far if run else key) == (sign, key)


def test_packed_product_refuses_an_exponent_past_its_field():
    p, top = GENS._packing, GENS._packing.limit[2]
    assert p.product([(2, top)]) == (1, GENS.pack([(2, top)]))
    with pytest.raises(CombinatorialBlowup, match="exponent 4294967294 of c is more than 2147483647"):
        p.product([(2, top), (0, 1), (2, top)])
    with pytest.raises(CombinatorialBlowup, match="exponent 4294967296 of c"):
        p.product([(2, 2**32)])


def test_odd_square_is_zero():
    p, a = GENS._packing, GENS.pack([(0, 1)])
    assert p.product([(0, 1)], a)[0] == p.product([(0, 2)])[0] == p.product([(0, 1), (0, 1)])[0] == 0
    assert normalize_word(GENS, [(0, 2)]) is None


def test_odd_anticommute_even_commute():
    p = GENS._packing
    a, b, c = (GENS.pack([(GENS.get(n).index, 1)]) for n in "abc")
    ab = GENS.pack([(0, 1), (1, 1)])
    assert p.product([(1, 1)], a) == (1, ab) and p.product([(0, 1)], b) == (-1, ab)
    assert p.product([(2, 1)], a) == p.product([(0, 1)], c) == (1, GENS.pack([(0, 1), (2, 1)]))
    assert p.product([(2, 1)], c) == (1, GENS.pack([(2, 2)]))


# ----------------------------------------------------------------------
# the packed word product against the reference


def times(key: int, factors) -> tuple:
    """The packed product of key by a word, unpacked: (sign, Monomial), or
    None when it is zero, the form normalize_word returns."""
    sign, key = GENS._packing.product(factors, key)
    return (sign, GENS.unpack(key)) if sign else None


factor_words = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)), max_size=4)


@st.composite
def elements(draw, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        word = draw(small_words)
        norm = normalize_word(GENS, indices_to_factors(word))
        if norm is None:
            continue
        _, mono = norm
        terms[mono] = Fraction(draw(st.integers(-3, 3)))
    return AlgElement(GENS, terms)


@given(factor_words, factor_words)
@example([(1, 1)], [(0, 1)])  # b*a = -a*b
@settings(max_examples=100)
def test_multiply_matches_word_concatenation_oracle(u, v):
    # the normal form of u times the word v is the normal form of the word uv,
    # the signs of the two steps multiplied
    first = normalize_word(GENS, u)
    want = normalize_word(GENS, u + v)
    if first is None:
        assert want is None
        return
    got = times(GENS.pack(first[1].exponents), v)
    assert want == (got and (first[0] * got[0], got[1]))


@given(factor_words, factor_words, factor_words)
@example([(1, 1)], [(4, 1)], [(0, 1)])  # b*f*a = a*b*f, a moved past two odd factors
@example([(4, 1)], [(2, 2)], [(1, 1)])  # f*c^2*b = -b*c^2*f
@settings(max_examples=200)
def test_multiply_associative_and_distributive(u, v, w):
    # associative: (uv)w and u(vw) have one normal form and sign, that of
    # the word uvw; the product distributes over a word, as the product by
    # its first part and then by the rest
    uvw = normalize_word(GENS, u + v + w)
    for left, right in ((u + v, w), (u, v + w)):
        head, tail = normalize_word(GENS, left), normalize_word(GENS, right)
        if head is None or tail is None:
            assert uvw is None
            continue
        got = times(GENS.pack(head[1].exponents), tail[1].exponents)
        assert uvw == (got and (head[0] * tail[0] * got[0], got[1]))
    sign, key = GENS._packing.product(v)
    rest = times(key, w) if sign else None
    assert times(0, v + w) == (rest and (sign * rest[0], rest[1]))


def test_graded_commutativity_of_monomials():
    # x*y = (-1)^(7*5) y*x in degrees 7 and 5, each the word's normal form
    for ma in basis_in_degree(GENS, 7):
        for mb in basis_in_degree(GENS, 5):
            xy, yx = times(GENS.pack(ma.exponents), mb.exponents), times(GENS.pack(mb.exponents), ma.exponents)
            assert xy == normalize_word(GENS, ma.exponents + mb.exponents)
            assert xy == (yx and ((-1) ** (7 * 5) * yx[0], yx[1]))


def test_degree_and_augment():
    ab, unit = Monomial(((0, 1), (1, 1))), Monomial(())
    x = AlgElement.monomial(GENS, ab)
    # the augmentation: the coefficient of the unit
    assert (AlgElement.monomial(GENS, unit, 5) + x).terms.get(unit, 0) == 5
    assert x.terms.get(unit, 0) == 0


def test_format_round_trips_signs():
    terms = [(GENS.pack([(0, 1), (1, 1)]), -2), (0, Fraction(1, 3))]
    assert _format_terms(GENS, terms) == _format_terms(GENS, terms[::-1]) == "1/3 - 2*a*b"


class _Half(Fraction):
    """A numbers.Rational that is neither an int nor a Fraction itself."""


ENTRY_POINTS = {
    "init": lambda c: AlgElement(GENS, {Monomial(((2, 1),)): c}),
    "monomial": lambda c: AlgElement.monomial(GENS, Monomial(((2, 1),)), c),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_coefficients_are_exact_rationals(entry):
    # linalg's rule: int and Fraction pass, any other rational becomes a
    # Fraction, and an inexact number is refused rather than stored
    make = ENTRY_POINTS[entry]
    assert make(2) == make(Fraction(4, 2)) == make(True) + make(_Half(1))
    assert all(type(c) is Fraction for c in make(_Half(1, 2)).terms.values())
    for inexact in (0.1, Decimal("0.1"), "1/3"):
        with pytest.raises(TypeError):
            make(inexact)


# ----------------------------------------------------------------------
# bases


def brute_force_basis(gens, n):
    """All exponent tuples with the right degree, by direct product."""
    ranges = []
    for g in gens:
        top = 1 if g.is_odd else n // g.degree
        ranges.append(range(top + 1))
    out = []
    for combo in itertools.product(*ranges):
        if sum(e * g.degree for e, g in zip(combo, gens)) == n:
            out.append(Monomial(tuple((i, e) for i, e in enumerate(combo) if e)))
    return out


@pytest.mark.parametrize("n", range(0, 16))
def test_basis_in_degree_matches_brute_force(n):
    # the order matters: it fixes every printed label
    want = sorted(brute_force_basis(GENS, n), key=lambda m: m.sort_key(GENS))
    assert basis_in_degree(GENS, n) == want


gensets = st.lists(st.integers(2, 9), max_size=6).map(
    lambda degrees: GenSet((f"g{i}", d) for i, d in enumerate(degrees))
)


@given(gensets, st.lists(st.integers(0, 16), min_size=1, max_size=6, unique=True))
@settings(max_examples=60, deadline=None)
def test_basis_in_degree_matches_brute_force_on_random_sets(gens, degrees):
    # degrees in random order on one set: a degree reads the suffix lists an
    # earlier one built, also after a longer degree has rebuilt the count table
    for n in degrees:
        want = sorted(brute_force_basis(gens, n), key=lambda m: m.sort_key(gens))
        assert basis_in_degree(gens, n) == want


@given(
    st.lists(st.integers(2, 9), min_size=1, max_size=4),
    st.lists(st.integers(2, 9), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_keys_move_between_a_fibre_and_its_total(base, fibre):
    # a base of odd and even generators in any order leads the total set, as
    # in a fibration; moving a key is the exponent-tuple route, packed
    k = len(base)
    small = [(f"f{i}", d) for i, d in enumerate(fibre)]
    total = GenSet([(f"b{i}", d) for i, d in enumerate(base)] + small)
    small = GenSet(small)
    held = total.mask(k)
    for n in range(17):
        keys = small.keys(n)
        up = small.move(keys, total)
        want = [total.pack((i + k, e) for i, e in small.unpack(key).exponents) for key in keys]
        assert up == want
        assert total.move(up, small) == keys and not any(key & held for key in up)
        keys = total.keys(n)
        for key, down in zip(keys, total.move(keys, small)):
            exponents = total.unpack(key).exponents
            if any(i < k for i, _ in exponents):
                assert down is None and key & held
            else:
                assert down == small.pack((i - k, e) for i, e in exponents) and not key & held


def test_oversized_basis_is_refused_before_it_is_built():
    # six degree-2 generators have C(35, 5) = 324,632 monomials in degree 60
    six = GenSet([(f"x{i}", 2) for i in range(6)])
    assert len(basis_in_degree(six, 38)) == 42_504 <= MAX_BASIS
    with pytest.raises(CombinatorialBlowup, match="324632 monomials"):
        basis_in_degree(six, 60)


def test_genset_builds_each_degree_basis_once():
    gens = GenSet([(g.name, g.degree) for g in GENS])
    first = gens.keys(9)
    assert [gens.unpack(k) for k in first] == basis_in_degree(GENS, 9) and gens.keys(9) is first
    assert gens == GENS and gens == gens
    # a refused basis stays refused: nothing is kept for it
    six = GenSet([(f"x{i}", 2) for i in range(6)])
    for _ in range(2):
        with pytest.raises(CombinatorialBlowup):
            six.keys(60)


def test_generator_degree_above_the_basis_cap_is_refused():
    # counting any basis in such a degree takes a table longer than MAX_BASIS
    assert Generator("x", MAX_BASIS, 0).degree == MAX_BASIS
    with pytest.raises(CombinatorialBlowup, match=f"degree {MAX_BASIS + 1}, more than"):
        GenSet([("t", 2), ("x", MAX_BASIS + 1)])


def test_basis_degree_zero_is_unit():
    assert basis_in_degree(GENS, 0) == [Monomial(())]
    # a point: the unit in degree 0 and nothing above it
    assert basis_in_degree(GenSet([]), 0) == [Monomial(())] and basis_in_degree(GenSet([]), 1) == []
    with pytest.raises(ValueError):
        basis_in_degree(GENS, -1)


# ----------------------------------------------------------------------
# Leibniz extension


@given(elements(), st.integers(0, 1), st.data())
@settings(max_examples=100)
def test_leibniz_matches_dense_oracle(x, parity, data):
    values = {}
    for g in GENS:
        if data.draw(st.booleans()):
            val = data.draw(elements(max_terms=2))
            values[g.index] = val
    got = apply_images(GENS, packed(GENS, monomial_images(GENS, values)), parity, x)
    oracle = oracle_operator(GENS, {i: as_dict(v) for i, v in values.items()}, parity, x)
    assert as_dict(got) == oracle


@pytest.mark.parametrize("parity", [0, 1])
def test_kernel_matches_dense_oracle_on_every_monomial(parity):
    # every monomial up to degree 14, under random images of random
    # generators (odd and even, repeated and not)
    rng = random.Random(parity)
    monomials = [m for n in range(15) for m in basis_in_degree(GENS, n)]
    for _ in range(12):
        values = {}
        for g in GENS:
            if rng.random() < 0.6:
                terms = {rng.choice(monomials): rng.randint(-2, 2) for _ in range(3)}
                values[g.index] = AlgElement(GENS, terms)
        images = packed(GENS, monomial_images(GENS, values))
        dense = {i: as_dict(v) for i, v in values.items()}
        for mono in monomials:
            element = AlgElement.monomial(GENS, mono)
            got = as_dict(apply_images(GENS, images, parity, element))
            want = oracle_operator(GENS, dense, parity, element)
            assert got == want, (mono.format(GENS), values)


def test_leibniz_on_product_rule():
    # an odd operator on x*y splits as (op x)*y + (-1)^|x| x*(op y), the
    # products by the word-concatenation reference
    values = {GENS.get("a").index: AlgElement.monomial(GENS, Monomial(()))}  # a -> 1, shift 3
    x, y = {Monomial(((0, 1),)): 1}, {Monomial(((1, 1), (2, 1))): 1}

    def op(terms: dict) -> dict:
        return as_dict(apply_images(GENS, images, 1, AlgElement(GENS, terms)))

    images = packed(GENS, monomial_images(GENS, values))
    lhs = op(oracle_mul(GENS, x, y))
    first, second = oracle_mul(GENS, op(x), y), oracle_mul(GENS, x, op(y))
    rhs = {m: first.get(m, 0) + (-1) ** 3 * second.get(m, 0) for m in first.keys() | second.keys()}
    assert lhs and lhs == {m: c for m, c in rhs.items() if c}

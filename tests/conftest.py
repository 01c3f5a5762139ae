"""Shared fixtures: parsed model files, random model generators, oracles.

The random generators build models in two stages so that closure of the
differential holds by construction: a front segment of generators is closed
(d = 0 and no twisting), and every other generator maps into the subalgebra
spanned by that segment (tensored with the base, for fibrations).
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from rht import (
    AlgElement,
    GenSet,
    Monomial,
    RatMatrix,
    RelativeModel,
    SullivanModel,
    basis_in_degree,
    parse_document,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load(name: str):
    return parse_document((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def su5():
    return load("su5.smf")[0]


@pytest.fixture(scope="session")
def su5_bundle():
    return load("su5-bundle.smf")[0]


@pytest.fixture(scope="session")
def ex44():
    return load("ex44.smf")[0]


@pytest.fixture(scope="session")
def ex47():
    """The three fibrations with fiber S3 x S9 x CP5 x S17, by name."""
    return {f.name: f for f in load("ex47.smf")}


@pytest.fixture(scope="session")
def wedge():
    return {f.name: f for f in load("wedge.smf")}


@pytest.fixture
def built_key_lists(monkeypatch):
    """(GenSet, degree) of each nonempty degree basis GenSet.keys builds while
    the test runs: a list it returns for the first time.  A degree built
    twice shows twice, as the set keeps each list it built."""
    built, seen, real = [], {}, GenSet.keys

    def recording(gens, n):
        keys = real(gens, n)
        if keys and id(keys) not in seen:
            seen[id(keys)] = keys  # kept, so that no later list reuses its id
            built.append((gens, n))
        return keys

    monkeypatch.setattr(GenSet, "keys", recording)
    return built


@pytest.fixture(scope="session")
def su4_fixtures():
    return {
        f.name: f
        for name in ("su4-circle.smf", "su4-torus.smf", "su4-trivial.smf")
        for f in load(name)
    }


# ----------------------------------------------------------------------
# independent sign and product oracles


def bubble_sign(gens: GenSet, word: list[int]):
    """Koszul sign of sorting a word of generator indices, by bubble sort.

    Returns (sign, sorted word) or None when an odd generator repeats.
    """
    word = list(word)
    sign = 1
    for i in range(len(word)):
        for j in range(len(word) - 1 - i):
            if word[j] > word[j + 1]:
                if gens[word[j]].is_odd and gens[word[j + 1]].is_odd:
                    sign = -sign
                word[j], word[j + 1] = word[j + 1], word[j]
    for a, b in zip(word, word[1:]):
        if a == b and gens[a].is_odd:
            return None
    return sign, word


def word_to_monomial(word: list[int]) -> Monomial:
    counts: dict[int, int] = {}
    for i in word:
        counts[i] = counts.get(i, 0) + 1
    return Monomial(tuple(sorted(counts.items())))


def oracle_mul(gens: GenSet, a: dict, b: dict) -> dict:
    """Multiply two {Monomial: coeff} dicts by concatenating words."""
    out: dict[Monomial, Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            res = bubble_sign(gens, ma.word() + mb.word())
            if res is None:
                continue
            sign, word = res
            mono = word_to_monomial(word)
            out[mono] = out.get(mono, Fraction(0)) + sign * ca * cb
    return {m: c for m, c in out.items() if c}


def oracle_operator(gens: GenSet, values: dict, parity: int, element: AlgElement) -> dict:
    """Dense word-by-word Leibniz expansion, independent of apply_images.

    values maps generator index -> {Monomial: coeff}; parity is the operator
    degree parity.  Returns a {Monomial: coeff} dict.
    """
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in element.terms.items():
        word = mono.word()
        for pos, letter in enumerate(word):
            val = values.get(letter)
            if not val:
                continue
            prefix, suffix = word[:pos], word[pos + 1 :]
            sign = 1
            if parity % 2:
                passed = sum(gens[i].degree for i in prefix)
                if passed % 2:
                    sign = -1
            pre = {word_to_monomial(prefix): Fraction(sign) * coeff}
            mid = oracle_mul(gens, pre, val)
            full = oracle_mul(gens, mid, {word_to_monomial(suffix): Fraction(1)})
            for m, c in full.items():
                out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def as_dict(el: AlgElement) -> dict:
    return dict(el.terms)


def map_to(cx, other, n: int) -> RatMatrix:
    """The 0/1 matrix of cx.positions(other, n): each pair to the same pair or to zero."""
    columns = [{} if i is None else {i: 1} for i in cx.positions(other, n)]
    return RatMatrix(other.slice(n).dim, columns)


# ----------------------------------------------------------------------
# random models


def random_space(rng: random.Random, max_gens: int = 4, max_degree: int = 9) -> SullivanModel:
    k = rng.randint(2, max_gens)
    degrees = sorted(rng.randint(2, max_degree) for _ in range(k))
    gens = GenSet([(f"g{i}", d) for i, d in enumerate(degrees)])
    closed = rng.randint(1, k)  # the first `closed` generators stay cocycles
    diff = {}
    for i in range(closed, k):
        g = gens[i]
        candidates = [
            m
            for m in basis_in_degree(gens, g.degree + 1)
            if m.exponents
            and all(j < closed for j, _ in m.exponents)
            and len(m.word()) >= 2
        ]
        value = AlgElement.zero(gens)
        for m in candidates:
            c = rng.choice([0, 0, 1, -1, 2])
            if c:
                value = value + AlgElement.monomial(gens, m, c)
        if not value.is_zero():
            diff[g.name] = value
    return SullivanModel(gens, diff, name=f"random-{rng.getrandbits(24):06x}")


def random_fibration(rng: random.Random, max_gens: int = 4, max_degree: int = 9) -> RelativeModel:
    fiber = random_space(rng, max_gens, max_degree)
    base_degree = rng.choice([2, 2, 2, 4])
    base = SullivanModel(GenSet([("t", base_degree)]), {}, name="base")
    combined = GenSet(
        [("t", base_degree)] + [(g.name, g.degree) for g in fiber.gens]
    )
    # generators appearing in any fiber differential must stay untouched,
    # otherwise closure of the total differential could break; a random
    # slice of the remaining cocycle generators joins them
    safe = {
        fiber.gens[i].name
        for value in fiber.diff.values()
        for m in value.terms
        for i, _ in m.exponents
    }
    for g in fiber.gens:
        if g.name not in fiber.diff and rng.random() < 0.5:
            safe.add(g.name)
    allowed = {0} | {combined.get(name).index for name in safe}
    total_diff: dict[str, AlgElement] = {}
    for g in fiber.gens:
        value = AlgElement.zero(combined)
        if g.name in fiber.diff:
            for m, c in fiber.diff[g.name].terms.items():
                shifted = Monomial(tuple((i + 1, e) for i, e in m.exponents))
                value = value + AlgElement.monomial(combined, shifted, c)
        elif g.name in safe:
            total_diff[g.name] = value
            continue
        candidates = [
            m
            for m in basis_in_degree(combined, g.degree + 1)
            if any(i == 0 for i, _ in m.exponents)
            and all(i in allowed for i, _ in m.exponents)
        ]
        for m in candidates:
            c = rng.choice([0, 0, 0, 1, -1])
            if c:
                value = value + AlgElement.monomial(combined, m, c)
        total_diff[g.name] = value
    total_diff = {k: v for k, v in total_diff.items() if not v.is_zero()}
    return RelativeModel(
        base,
        fiber.gens,
        total_diff,
        fiber_diff=dict(fiber.diff),
        name=f"{fiber.name}-twist",
    )

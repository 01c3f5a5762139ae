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
from typing import NamedTuple

import pytest

from rht import (
    AlgElement,
    Echelon,
    GenSet,
    Monomial,
    RatMatrix,
    RelativeModel,
    Subspace,
    SullivanModel,
    basis_in_degree,
    parse_document,
)
from rht.algebra import _compile, _format_sum, _sum
from rht.model import parse_expression
from rht.derivations import ABSOLUTE, IDEAL, DerComplex, _inverse, dual_frame
from rht.errors import GeneratorSetMismatch, RhtError, UnknownGenerator
from rht.invariants import LesNodeReport, LesReport

FIXTURES = Path(__file__).parent / "fixtures"
CP3 = Path(__file__).parent.parent / "perfbench" / "cp3.smf"


def load(name: str):
    return parse_document((FIXTURES / name).read_text())


def fixture_models():
    """Every model of every well-formed fixture file, and cp3.smf."""
    paths = [p for p in sorted(FIXTURES.glob("*.smf")) if p.name != "bad-degree.smf"]
    return [m for p in paths + [CP3] for m in parse_document(p.read_text())]


def fixture_texts() -> list[str]:
    """The text of each fixture file that parses, those of parse/ included."""
    out = []
    for path in sorted(FIXTURES.rglob("*.smf")):
        try:
            parse_document(path.read_text())
        except RhtError:
            continue
        out.append(path.read_text())
    return out


def spaces_of(models) -> list[SullivanModel]:
    """The SullivanModels of parsed models: each space, and each fibration's
    base, fibre and total."""
    return [s for m in models for s in ((m,) if isinstance(m, SullivanModel) else (m.base, m.fiber, m.total))]


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


def normalize_word(gens: GenSet, factors):
    """Sort a sequence of (generator index, exponent) factors into normal form.

    Returns (sign, Monomial) or None when the product is zero (an odd
    generator appearing with total exponent >= 2).  The sign is the Koszul
    sign accumulated from transposing odd factors past each other.  The
    reference for the packed word product, _Packing.product.
    """
    total: dict[int, int] = {}
    odd_positions: list[int] = []
    for i, e in factors:
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            continue
        if i < 0 or i >= len(gens):
            raise UnknownGenerator(f"generator index {i} out of range")
        if gens[i].is_odd:
            if total.get(i, 0) + e >= 2:
                return None
            odd_positions.append(i)
        total[i] = total.get(i, 0) + e
    # sign = parity of inversions among the odd occurrences, read in input order
    inv = 0
    for a in range(len(odd_positions)):
        for b in range(a + 1, len(odd_positions)):
            if odd_positions[a] > odd_positions[b]:
                inv += 1
    sign = -1 if inv % 2 else 1
    mono = Monomial(tuple(sorted(total.items())))
    return sign, mono


def element_text(el: AlgElement) -> str:
    """The reference text of an element: its terms in sort_key order."""
    items = sorted(el.terms.items(), key=lambda mc: mc[0].sort_key(el.gens))
    return _format_sum(el.gens, items)


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
    """Dense word-by-word Leibniz expansion, independent of the packed kernel.

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


def packed_terms(el: AlgElement) -> dict:
    """An element as packed terms {key: coefficient}, the form parse_expression returns."""
    return {el.gens.pack(m.exponents): c for m, c in el.terms.items()}


def images_of(model: SullivanModel) -> dict:
    """A model's d as {index: {key: coefficient}}, in no term order."""
    return {i: dict(terms) for i, terms in model.images.items()}


def element_of(gens: GenSet, terms: dict) -> AlgElement:
    """Packed terms {key: coefficient} as an element over gens."""
    return AlgElement(gens, {gens.unpack(key): c for key, c in terms.items()})


def expression(gens: GenSet, text: str) -> AlgElement:
    """The element of an expression over gens, as a d line writes it, read by parse_expression."""
    return element_of(gens, parse_expression(text, gens))


def diff_of(model: SullivanModel, name: str) -> AlgElement:
    """d(name) as an element of model's diff view, zero when d(name) = 0."""
    model.gens.get(name)
    return model.diff.get(name, AlgElement.zero(model.gens))


class Derivation(NamedTuple):
    """A finitely supported derivation of the algebra over gens, of degree -shift."""

    gens: GenSet  # the value algebra
    shift: int
    values: dict  # generator index -> AlgElement


def pair(slice_, i: int) -> tuple:
    """The slice's i-th pair (Generator, Monomial)."""
    w, key = slice_.keys[i]
    return slice_.value_gens[w], slice_.value_gens.unpack(key)


def derivation_of(slice_, i: int) -> Derivation:
    """The derivation of the slice's i-th pair (w, m): w to m, every other generator to 0."""
    return vector_derivation(slice_, {i: 1})


def vector_derivation(slice_, vector) -> Derivation:
    """The derivation of a sparse vector of the slice: the value of each
    generator w is the sum of c*m over its pairs (w, m) with coefficient c."""
    gens, values = slice_.value_gens, {}
    for i, c in vector.items():
        g, mono = pair(slice_, i)
        term = AlgElement.monomial(gens, mono, c)
        values[g.index] = values.get(g.index, AlgElement.zero(gens)) + term
    return Derivation(gens, slice_.degree, values)


def derivation_text(slice_, vector) -> str:
    """The reference text of a slice vector: "(w, value)" per generator,
    each value an element_text, in generator order."""
    theta = vector_derivation(slice_, vector)
    parts = (f"({theta.gens[i].name}, {element_text(v)})" for i, v in sorted(theta.values.items()))
    return " + ".join(parts)


def cochain_text(gens: GenSet, keys, vector) -> str:
    """The reference text of a cochain vector over the key list keys: an element_text."""
    return element_text(AlgElement(gens, {gens.unpack(keys[i]): c for i, c in vector.items()}))


def monomial_images(gens: GenSet, values: dict) -> dict:
    """Generator images as exponent tuples: index -> ((exponents, coeff), ...)
    for each nonzero value, an integral coefficient an int.  The reference
    for SullivanModel.images, which holds the same terms packed."""
    return {
        i: tuple((m.exponents, int(c) if c.denominator == 1 else c) for m, c in v.terms.items())
        for i, v in values.items()
        if v.terms
    }


def packed(gens: GenSet, images: dict) -> dict:
    """Images in monomial_images form as packed terms, the form the kernel reads."""
    return {i: tuple((gens.pack(t), c) for t, c in terms) for i, terms in images.items()}


def apply_images(gens: GenSet, images: dict, parity: int, element: AlgElement) -> AlgElement:
    """The image of an element under packed generator images extended as a
    derivation of the given parity, through the packed kernel: the element
    is packed and the result unpacked here."""
    if element.gens != gens:
        raise GeneratorSetMismatch("element over a different generator set")
    terms = [(gens.pack(m.exponents), c) for m, c in element.terms.items()]
    out = _sum(_compile(gens, images, parity), terms)
    return AlgElement(gens, {gens.unpack(k): c for k, c in out.items()})


def differential(model: SullivanModel, element: AlgElement) -> AlgElement:
    """The model's d applied to any element over its generators."""
    return apply_images(model.gens, model.images, 1, element)


def apply_derivation(theta: Derivation, element: AlgElement) -> AlgElement:
    """theta extended to element by the graded Leibniz rule, through the packed kernel."""
    gens = theta.gens
    return apply_images(gens, packed(gens, monomial_images(gens, theta.values)), theta.shift, element)


def pairs(slice_) -> list:
    """The slice's pairs (Generator, Monomial), in order."""
    return [pair(slice_, i) for i in range(slice_.dim)]


def labels(slice_) -> list[str]:
    """'(w, m)' for each pair of the slice, in order."""
    return [f"({g.name}, {m.format(slice_.value_gens)})" for g, m in pairs(slice_)]


def product(a: RatMatrix, b: RatMatrix) -> list[dict]:
    """The columns of the matrix product a.b: each column of b sent through a.apply."""
    assert a.cols == b.rows, (a, b)
    return [a.apply(col) for col in b.columns]


def image_by_projection(evaluation, d_out: RatMatrix, frame) -> Subspace:
    """The reference image of the cycles of d_out under evaluation: a kernel
    vector per free column of d_out, each moved through evaluation."""
    cycles = Echelon(d_out.cols, d_out.row_lines()).kernel()
    moved = [{evaluation[j]: c for j, c in z.items() if evaluation[j] is not None} for z in cycles]
    return Subspace(frame, moved)


def class_coordinates(h, cycle) -> dict:
    """The class of a cycle in the basis of h.representatives, keyed by class
    index: the cycle modulo the boundaries, read at the representatives'
    pivots, must leave nothing once those multiples are taken off."""
    reps = h.representatives
    r = h._boundaries.reduce(cycle)
    # each representative is 1 at its own pivot and 0 at the others
    coords = {i: r[min(rep)] for i, rep in enumerate(reps) if min(rep) in r}
    for i, c in coords.items():
        for j, x in reps[i].items():
            r[j] = r.get(j, 0) - c * x
    assert not any(r.values()), "not a cycle modulo boundaries"
    return coords


def les_by_coordinates(f: RelativeModel, degrees) -> LesReport:
    """The reference les_check: each induced map is the matrix of the class
    coordinates of its images of the source representatives, its rank is
    that matrix's, and out . in is the product of two such matrices."""
    degrees = sorted(set(degrees))
    lo, hi = degrees[0], degrees[-1]
    ideal, ab = DerComplex(f, IDEAL), DerComplex(f, ABSOLUTE)
    rel = ideal.relative
    report = LesReport()
    inc, res = {}, {}
    for n in range(max(0, lo - 1), hi + 2):
        inc[n], res[n] = ideal.positions(rel, n), rel.positions(ab, n)
        kept = [j for j, a in enumerate(res[n]) if a is not None]
        report.chain_level_ok = report.chain_level_ok and (
            None not in inc[n]
            and sorted(inc[n] + kept) == list(range(rel.slice(n).dim))
            and sorted(res[n][j] for j in kept) == list(range(ab.slice(n).dim))
        )

    def moved(v, positions):
        return {positions[i]: c for i, c in v.items() if positions[i] is not None}

    def induced(cycles, h):
        m = RatMatrix(h.dim, [class_coordinates(h, z) for z in cycles])
        return m, Echelon(m.rows, m.columns).rank

    def connecting(n):
        section = _inverse(res[n], ab.slice(n).dim)
        bounds = [rel.boundary(n).apply(moved(z, section)) for z in ab.homology(n).representatives]
        assert not any(res[n - 1][j] is not None for b in bounds for j in b)
        to_ideal = _inverse(inc[n - 1], rel.slice(n - 1).dim)
        return induced((moved(b, to_ideal) for b in bounds), ideal.homology(n - 1))

    def exact_at(node, h, into, out):
        (a, rk_in), (b, rk_out) = into, out
        exact = not any(product(b, a)) and rk_in + rk_out == h.dim
        return LesNodeReport(node, h.dim, rk_in, rk_out, exact)

    for n in degrees:
        h_ideal, h_rel, h_abs = ideal.homology(n), rel.homology(n), ab.homology(n)
        i_star = induced((moved(z, inc[n]) for z in h_ideal.representatives), h_rel)
        j_star = induced((moved(z, res[n]) for z in h_rel.representatives), h_abs)
        report.nodes.append(exact_at(f"H_{n}(relative)", h_rel, i_star, j_star))
        report.nodes.append(exact_at(f"H_{n}(ideal)", h_ideal, connecting(n + 1), i_star))
        if n >= 2:
            report.nodes.append(exact_at(f"H_{n}(absolute)", h_abs, j_star, connecting(n)))
    return report


def zero_one(positions, rows: int) -> RatMatrix:
    """The 0/1 matrix sending column j to row positions[j], or to zero on None."""
    return RatMatrix(rows, [{} if i is None else {i: 1} for i in positions])


def map_to(cx, other, n: int) -> RatMatrix:
    """The 0/1 matrix of cx.positions(other, n): each pair to the same pair or to zero."""
    return zero_one(cx.positions(other, n), other.slice(n).dim)


def evaluation_matrix(cx, n: int) -> RatMatrix:
    """The 0/1 matrix of cx.evaluation(n), its rows indexed by dual_frame(fiber, n)."""
    return zero_one(cx.evaluation(n), len(dual_frame(cx.source.fiber, n)))


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


def random_pure_elliptic(rng: random.Random) -> SullivanModel:
    """A pure minimal model that is elliptic when its pure quotient is finite.

    Even generators q_i of degree 2 or 4 are cocycles; odd p_i has
    dp_i = q_i^{a_i}, a_i >= 2, plus random terms of Lambda Q of word length
    >= 2; zero to two extra odd generators have d in the same terms, or zero.
    """
    k = rng.randint(1, 3)  # even generators
    even = [rng.choice([2, 4]) for _ in range(k)]
    powers = [rng.randint(2, 3) for _ in range(k)]
    extra = [rng.choice([3, 5, 7]) for _ in range(rng.randint(0, 2))]
    gens = GenSet(
        [(f"q{i}", d) for i, d in enumerate(even)]
        + [(f"p{i}", d * a - 1) for i, (d, a) in enumerate(zip(even, powers))]
        + [(f"e{i}", d) for i, d in enumerate(extra)]
    )
    diff = {}
    for g in gens[k:]:
        lead = Monomial(((g.index - k, powers[g.index - k]),)) if g.index < 2 * k else None
        value = AlgElement.zero(gens) if lead is None else AlgElement.monomial(gens, lead)
        for m in basis_in_degree(gens, g.degree + 1):
            if m != lead and len(m.word()) >= 2 and all(i < k for i, _ in m.exponents):
                c = rng.choice([0, 0, 1, -1, 2])
                if c:
                    value = value + AlgElement.monomial(gens, m, c)
        diff[g.name] = value
    return SullivanModel(gens, diff, name=f"pure-{rng.getrandbits(24):06x}")


# ----------------------------------------------------------------------
# classical homogeneous spaces, written by formula (Greub, Halperin and
# Vanstone, Connections, Curvature, and Cohomology III; Felix, Halperin and
# Thomas, GTM 205): pure models with as many odd generators as even ones


def grassmannian(k: int, n: int) -> SullivanModel:
    """The Cartan model of Gr_k(C^n): even c_i in degree 2i for i <= k, odd
    y_j in degree 2j - 1 for j = n-k+1..n, and d y_j the degree-2j part of
    (1 + c_1 + ... + c_k)^(-1)."""
    gens = GenSet(
        [(f"c{i}", 2 * i) for i in range(1, k + 1)] + [(f"y{j}", 2 * j - 1) for j in range(n - k + 1, n + 1)]
    )
    inverse = [AlgElement.monomial(gens, Monomial(()))]  # its part in each degree 2m: s_m = -sum_i c_i s_(m-i)
    for m in range(1, n + 1):
        part = AlgElement.zero(gens)
        for i in range(1, min(k, m) + 1):
            minus_c = {Monomial(((i - 1, 1),)): -1}
            part = part + AlgElement(gens, oracle_mul(gens, minus_c, inverse[m - i].terms))
        inverse.append(part)
    return SullivanModel(gens, {f"y{j}": inverse[j] for j in range(n - k + 1, n + 1)}, name=f"Gr_{k}(C^{n})")


def flag_manifold(n: int) -> SullivanModel:
    """The Cartan model of Fl(n) = SU(n)/T^(n-1): even x_1..x_(n-1) in degree
    2, odd y_i in degree 2i - 1 for i = 2..n, and d y_i the elementary
    symmetric polynomial e_i(x_1, ..., x_(n-1), -x_1 - ... - x_(n-1))."""
    gens = GenSet([(f"x{i}", 2) for i in range(1, n)] + [(f"y{i}", 2 * i - 1) for i in range(2, n + 1)])
    xs = [{Monomial(((i, 1),)): 1} for i in range(n - 1)]
    last = {Monomial(((i, 1),)): -1 for i in range(n - 1)}
    e = [AlgElement.monomial(gens, Monomial(()))]  # e_0..e_j of the variables read so far

    def times(v: dict, el: AlgElement) -> AlgElement:
        return AlgElement(gens, oracle_mul(gens, v, el.terms))

    for v in [*xs, last]:
        e = [e[0]] + [e[i] + times(v, e[i - 1]) for i in range(1, len(e))] + [times(v, e[-1])]
    return SullivanModel(gens, {f"y{i}": e[i] for i in range(2, n + 1)}, name=f"Fl({n})")


def scaling_family(k, connected=False):
    """ex47's fibre over t1..tk in degree 2, twisted by D w4 = w1*w2*t1^3 + t1^9.

    The connected variant adds + t2^9 + ... + tk^9 to D w4.
    """
    base = "".join(f"gen t{i} 2\n" for i in range(1, k + 1))
    more = "".join(f" + t{i}^9" for i in range(2, k + 1)) if connected else ""
    text = (
        f"[fibration scale-{k}]\n[base]\n{base}[fiber]\n"
        "gen u 2\ngen w1 3\ngen w2 9\ngen w3 11\ngen w4 17\nd w3 = u^6\n"
        f"[total]\nD w3 = u^6\nD w4 = w1*w2*t1^3 + t1^9{more}\n"
    )
    return parse_document(text)[0]

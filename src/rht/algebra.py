"""Exact arithmetic in free graded-commutative algebras over Q.

Elements live in Lambda(g_1, ..., g_k) where each generator carries a degree
>= 2.  Odd-degree generators anticommute (so they square to zero), even-degree
generators commute freely.  Monomials are kept in a normal form sorted by
generator declaration index, with the Koszul sign accumulated on the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    DuplicateGenerator,
    GeneratorSetMismatch,
    NotSimplyConnected,
    UnknownGenerator,
)

MIXED = object()  # sentinel returned by AlgElement.degree() for inhomogeneous elements


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    index: int

    def __post_init__(self):
        if self.degree < 2:
            raise NotSimplyConnected(
                f"generator {self.name} has degree {self.degree} < 2"
            )

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1


class GenSet:
    """An ordered set of generators; declaration order is the canonical order."""

    def __init__(self, gens: Iterable[tuple[str, int]]):
        self.gens: tuple[Generator, ...] = tuple(
            Generator(name, degree, i) for i, (name, degree) in enumerate(gens)
        )
        self.by_name: dict[str, Generator] = {}
        for g in self.gens:
            if g.name in self.by_name:
                raise DuplicateGenerator(f"generator {g.name} declared twice")
            self.by_name[g.name] = g

    def __len__(self) -> int:
        return len(self.gens)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.gens)

    def __getitem__(self, index: int) -> Generator:
        return self.gens[index]

    def get(self, name: str) -> Generator:
        try:
            return self.by_name[name]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {name!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, GenSet):
            return NotImplemented
        return [(g.name, g.degree) for g in self.gens] == [
            (g.name, g.degree) for g in other.gens
        ]

    def __hash__(self):
        return hash(tuple((g.name, g.degree) for g in self.gens))

    def __repr__(self):
        inner = ", ".join(f"{g.name}:{g.degree}" for g in self.gens)
        return f"GenSet({inner})"


@dataclass(frozen=True)
class Monomial:
    """Normal-form monomial: exponents sorted by generator index."""

    exponents: tuple[tuple[int, int], ...]  # (generator index, positive exponent)

    def degree(self, gens: GenSet) -> int:
        return sum(e * gens[i].degree for i, e in self.exponents)

    @property
    def is_unit(self) -> bool:
        return not self.exponents

    def exponent_of(self, index: int) -> int:
        for i, e in self.exponents:
            if i == index:
                return e
        return 0

    def factors(self) -> list[tuple[int, int]]:
        return list(self.exponents)

    def word(self) -> list[int]:
        """The monomial as a flat word of generator indices."""
        out = []
        for i, e in self.exponents:
            out.extend([i] * e)
        return out

    def sort_key(self, gens: GenSet) -> tuple:
        # graded-lexicographic: degree first, then exponent vector, largest first
        vec = tuple(self.exponent_of(i) for i in range(len(gens)))
        return (self.degree(gens), tuple(-e for e in vec))

    def format(self, gens: GenSet) -> str:
        if self.is_unit:
            return "1"
        parts = []
        for i, e in self.exponents:
            name = gens[i].name
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)


UNIT = Monomial(())

Rational = Union[int, Fraction]


def normalize_word(gens: GenSet, factors: Sequence[tuple[int, int]]):
    """Sort a sequence of (generator index, exponent) factors into normal form.

    Returns (sign, Monomial) or None when the product is zero (an odd
    generator appearing with total exponent >= 2).  The sign is the Koszul
    sign accumulated from transposing odd factors past each other.
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


def normalize_product(gens: GenSet, factors: Sequence[tuple[Generator, int]]):
    """Public form of normalize_word taking (Generator, exponent) pairs."""
    idx_factors = []
    for g, e in factors:
        if gens.by_name.get(g.name) is not g:
            raise UnknownGenerator(f"generator {g.name!r} is not in this set")
        idx_factors.append((g.index, e))
    return normalize_word(gens, idx_factors)


class AlgElement:
    """A Q-linear combination of normal-form monomials over a fixed GenSet."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: GenSet, terms: Optional[Mapping[Monomial, Rational]] = None):
        self.gens = gens
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[m] = c
        self.terms = clean

    # --- constructors -------------------------------------------------

    @staticmethod
    def zero(gens: GenSet) -> "AlgElement":
        return AlgElement(gens)

    @staticmethod
    def unit(gens: GenSet, coeff: Rational = 1) -> "AlgElement":
        return AlgElement(gens, {UNIT: Fraction(coeff)})

    @staticmethod
    def gen(gens: GenSet, name: str) -> "AlgElement":
        g = gens.get(name)
        return AlgElement(gens, {Monomial(((g.index, 1),)): Fraction(1)})

    @staticmethod
    def monomial(gens: GenSet, mono: Monomial, coeff: Rational = 1) -> "AlgElement":
        return AlgElement(gens, {mono: Fraction(coeff)})

    # --- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Common degree of all terms, MIXED if they disagree, None if zero."""
        degs = {m.degree(self.gens) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            return MIXED
        return degs.pop()

    def is_homogeneous_of(self, n: int) -> bool:
        d = self.degree()
        return d is None or d == n

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def _check(self, other: "AlgElement"):
        if self.gens != other.gens:
            raise GeneratorSetMismatch("elements over different generator sets")

    # --- arithmetic ---------------------------------------------------

    def __add__(self, other: "AlgElement") -> "AlgElement":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return AlgElement(self.gens, out)

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        return self + (-other)

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.gens, {m: -c for m, c in self.terms.items()})

    def scale(self, c: Rational) -> "AlgElement":
        c = Fraction(c)
        return AlgElement(self.gens, {m: c * v for m, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            fa = ma.factors()
            for mb, cb in other.terms.items():
                norm = normalize_word(self.gens, fa + mb.factors())
                if norm is None:
                    continue
                sign, mono = norm
                out[mono] = out.get(mono, Fraction(0)) + sign * ca * cb
        return AlgElement(self.gens, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.gens == other.gens and self.terms == other.terms

    def __hash__(self):
        return hash((self.gens, frozenset(self.terms.items())))

    def __repr__(self):
        return f"AlgElement({self.format()})"

    def format(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda mc: mc[0].sort_key(self.gens))
        parts = []
        for m, c in items:
            mono = m.format(self.gens)
            if m.is_unit:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def augment(a: AlgElement) -> Fraction:
    """Coefficient of the unit monomial (the degree-0 projection)."""
    return a.coefficient(UNIT)


def basis_in_degree(gens: GenSet, n: int) -> list[Monomial]:
    """All normal-form monomials of total degree n, in graded-lex order."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    out: list[Monomial] = []

    def rec(i: int, remaining: int, acc: list[tuple[int, int]]):
        if remaining == 0:
            out.append(Monomial(tuple(acc)))
            return
        if i >= len(gens):
            return
        g = gens[i]
        max_e = 1 if g.is_odd else remaining // g.degree
        rec(i + 1, remaining, acc)
        for e in range(1, max_e + 1):
            if e * g.degree <= remaining:
                acc.append((i, e))
                rec(i + 1, remaining - e * g.degree, acc)
                acc.pop()

    rec(0, n, [])
    out.sort(key=lambda m: m.sort_key(gens))
    return out


def leibniz_apply(
    gens: GenSet,
    values: Mapping[int, AlgElement],
    parity: int,
    element: AlgElement,
) -> AlgElement:
    """Extend generator values to the algebra by the graded Leibniz rule.

    ``values`` maps generator indices to their images; generators not in the
    map go to zero.  ``parity`` is the parity of the operator's degree: the
    sign picked up when the operator passes a factor x is (-1)^(parity*|x|).
    Works for differentials (parity 1, degree +1) and for derivations of
    shift n (parity n % 2, degree -n) alike.
    """
    if element.gens != gens:
        raise GeneratorSetMismatch("element over a different generator set")
    result = AlgElement.zero(gens)
    odd_op = parity % 2 == 1
    for mono, coeff in element.terms.items():
        factors = mono.factors()
        prefix_deg = 0
        for pos, (i, e) in enumerate(factors):
            val = values.get(i)
            g = gens[i]
            if val is not None and not val.is_zero():
                # sign from passing the preceding factors
                sign = -1 if (odd_op and prefix_deg % 2 == 1) else 1
                # within the group g^e every slot gives the same term: g is
                # either even (no sign) or odd with e == 1
                before = factors[:pos] + ([(i, e - 1)] if e > 1 else [])
                after = factors[pos + 1 :]
                term = AlgElement.monomial(gens, Monomial(tuple(before)), sign * e * coeff)
                term = term * val
                term = term * AlgElement.monomial(gens, Monomial(tuple(after)))
                result = result + term
            prefix_deg += e * g.degree
    return result

"""Exact arithmetic in free graded-commutative algebras over Q.

Elements live in Lambda(g_1, ..., g_k) where each generator carries a degree
>= 2.  Odd-degree generators anticommute (so they square to zero), even-degree
generators commute freely.  Below the printers a monomial is one packed
int, with a field per generator (_Packing): degree bases are born packed,
from per-GenSet suffix lists kept for the set's life, and the Leibniz kernel
and the matrices read them.  The one product is the packed word product
(_Packing.product), which takes a word of factors into normal form with its
Koszul sign.  A Monomial, the normal form as exponents sorted by generator
index, is made only for an element, a printed basis or a test.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    CombinatorialBlowup,
    DuplicateGenerator,
    GeneratorSetMismatch,
    NotSimplyConnected,
    UnknownGenerator,
)

# Largest degree basis any computation may build; above it the count alone
# is reported.  The largest basis of any fixture or benchmark has 331.
MAX_BASIS = 50_000

# An even generator's exponent is a DIGIT-bit field of a packed monomial.
# Packing refuses an exponent of 2^(DIGIT - 1) or more, so the sum of two
# packed monomials never carries from one field into the next.  A degree
# basis reaches such an exponent only in a degree past 2^DIGIT.
DIGIT = 32


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
        if self.degree > MAX_BASIS:
            # counting a basis in this degree alone takes a table longer than
            # the largest basis admitted
            raise CombinatorialBlowup(
                f"generator {self.name} has degree {self.degree}, more than {MAX_BASIS}"
            )

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1


class GenSet:
    """An ordered set of generators; declaration order is the canonical order.

    A GenSet never changes, so it keeps for every model and element over it
    the count table of every degree basis (counts) and the suffix lists its
    degree bases are built from (suffix).  The lists hold packed monomials,
    one int each in the layout of _Packing, built on first use; a degree
    basis is the list for all the generators (keys).  A Monomial is made from
    a key only for output (unpack, basis_in_degree).
    """

    def __init__(self, gens: Iterable[tuple[str, int]]):
        self.gens: tuple[Generator, ...] = tuple(
            Generator(name, degree, i) for i, (name, degree) in enumerate(gens)
        )
        self.by_name: dict[str, Generator] = {}
        for g in self.gens:
            if g.name in self.by_name:
                raise DuplicateGenerator(f"generator {g.name} declared twice")
            self.by_name[g.name] = g
        self._counts: list[list[int]] = [[]]  # see counts
        self._suffix: list[dict[int, list[int]]] = [{0: [0]} for _ in range(len(self.gens) + 1)]
        self._even: Optional[GenSet] = None

    def counts(self, n: int) -> list[list[int]]:
        """counts[i][r]: the monomials of degree r in gens[i:], for every r <= n at least.

        One table serves every degree; a degree past its end rebuilds it at
        twice the length, so building it stays linear in the largest degree.
        Callers must not change it.  A degree of 2^DIGIT or more is refused
        before any table is built: no packed monomial holds its exponents.
        """
        if n >> DIGIT:
            raise CombinatorialBlowup(f"degree {n} has exponents a packed monomial cannot hold")
        if len(self._counts[0]) <= n:
            size = max(n + 1, 2 * len(self._counts[0]))
            rows = [[1] + [0] * (size - 1)]
            for g in reversed(self.gens):
                prev, row = rows[-1], rows[-1][:]
                src = prev if g.is_odd else row
                for r in range(g.degree, size):
                    row[r] += src[r - g.degree]
                rows.append(row)
            rows.reverse()
            self._counts = rows
        return self._counts

    def size(self, n: int) -> int:
        """The number of monomials of degree n; CombinatorialBlowup above MAX_BASIS."""
        size = self.counts(n)[0][n]
        if size > MAX_BASIS:
            raise CombinatorialBlowup(f"degree {n} has {size} monomials, more than {MAX_BASIS}")
        return size

    def suffix(self, i: int, m: int) -> list[int]:
        """The packed monomials of degree m over gens[i:], in graded-lex order.

        It is (e << shift[i]) + t for each exponent e of gens[i] from high to
        low and each t in suffix(i + 1, m - e*|gens[i]|), then suffix(i + 1, m),
        built on first use from lists kept per (i, m).  Only lists the count
        table finds nonempty are read, and the loop over e ends once it has
        the counts[i][m] - counts[i + 1][m] keys with a positive e, so a
        basis costs its own length times the generators.  The count table
        must reach m and every exponent must fit its field (keys checks
        both); callers must not change the list.
        """
        lists = self._suffix[i]
        if m not in lists:
            g, reach, shift = self.gens[i], self._counts[i + 1], self._packing.shift[i]
            out, share = [], self._counts[i][m] - reach[m]
            for e in range(min(m // g.degree, 1) if g.is_odd else m // g.degree, 0, -1):
                if len(out) == share:
                    break
                if reach[m - e * g.degree]:
                    head = e << shift
                    out += [head + t for t in self.suffix(i + 1, m - e * g.degree)]
            if reach[m]:
                out += self.suffix(i + 1, m)
            lists[m] = out
        return lists[m]

    @cached_property
    def _packing(self) -> "_Packing":
        return _Packing(self)

    @cached_property
    def _layout(self) -> tuple:
        """(name, degree) per generator, what == and hash read; built on first
        comparison, since most sets (a quotient's, a total's) are never compared."""
        return tuple((g.name, g.degree) for g in self.gens)

    def keys(self, n: int) -> list[int]:
        """The degree-n basis as packed monomials, suffix(0, n), built on first
        use; callers must not change the list.  Two monomials with no odd
        generator in common multiply, up to the Koszul sign, to the sum of
        their keys.  An exponent in degree n is at most n/2, so the degree
        alone decides whether every field holds it: counts refuses one of
        2^DIGIT or more."""
        if n in self._suffix[0]:
            return self._suffix[0][n]
        if n < 0:
            raise ValueError("degree must be nonnegative")
        if not self.size(n):  # nothing to build, also when the set has no generators
            return self._suffix[0].setdefault(n, [])
        return self.suffix(0, n)

    def pack(self, exponents: Iterable[tuple[int, int]]) -> int:
        """The packed monomial of an exponent tuple; CombinatorialBlowup for an
        exponent a field cannot hold."""
        return self._packing.pack(exponents)

    def unpack(self, key: int) -> "Monomial":
        """The Monomial of a packed monomial, for output."""
        return Monomial(self._packing.unpack(key))

    def mask(self, k: int) -> int:
        """The bits of the fields of gens[:k]: a key holds one of them iff key & mask."""
        return sum(self._packing.bits[:k])

    def move(self, keys: Iterable[int], other: "GenSet") -> list[Optional[int]]:
        """Each key as a key of other, where one of the two sets is the other
        less its first k generators (a fibre and its total space): None for a
        key holding one of the k."""
        big, k = max(self, other, key=len), abs(len(other) - len(self))
        lead, odd = big._packing.below[k].bit_length(), big._packing.odd.bit_length()
        tail, at = odd - lead, odd + DIGIT * (k - lead)  # the rest's odd bits, its first field
        low = (1 << tail) - 1
        if big is other:
            return [(key & low) << lead | key >> tail << at for key in keys]
        held = big.mask(k)
        return [None if key & held else key >> lead & low | key >> at << tail for key in keys]

    def even(self) -> "GenSet":
        """The even generators, in order, as a set of their own, built on first use.

        It keeps its key lists like any set, so the models over this one
        share them (the pure quotient reads them).  A key of this set with no
        odd generator, shifted right by the number of odd generators, is the
        same monomial's key in the even set: both lay the even fields out
        alike, above the odd bits (_Packing).
        """
        if self._even is None:
            self._even = GenSet((g.name, g.degree) for g in self.gens if not g.is_odd)
        return self._even

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
        if self is other:
            return True
        if not isinstance(other, GenSet):
            return NotImplemented
        return self._layout == other._layout

    def __hash__(self):
        return hash(self._layout)

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

    def word(self) -> list[int]:
        """The monomial as a flat word of generator indices."""
        out = []
        for i, e in self.exponents:
            out.extend([i] * e)
        return out

    def sort_key(self, gens: GenSet) -> tuple:
        # graded-lexicographic: degree first, then exponent vector, largest first;
        # within a degree the sparse pairs first differ where the dense vectors do
        return (self.degree(gens), tuple((i, -e) for i, e in self.exponents))

    def format(self, gens: GenSet) -> str:
        if self.is_unit:
            return "1"
        parts = []
        for i, e in self.exponents:
            name = gens[i].name
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)


Rational = Union[int, Fraction]


def _exact(c) -> Fraction:
    """c as a Fraction; by linalg's rule, an inexact number (float, Decimal, str) raises TypeError."""
    if type(c) not in (int, Fraction) and not isinstance(c, numbers.Rational):
        raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__} {c!r}")
    return Fraction(c)


class AlgElement:
    """A Q-linear combination of normal-form monomials over a fixed GenSet:
    the public constructors' input and the diff view.  It adds but does not
    multiply."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: GenSet, terms: Optional[Mapping[Monomial, Rational]] = None):
        self.gens = gens
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = _exact(c)
                if c:
                    clean[m] = c
        self.terms = clean

    # --- constructors -------------------------------------------------

    @staticmethod
    def zero(gens: GenSet) -> "AlgElement":
        return AlgElement(gens)

    @staticmethod
    def monomial(gens: GenSet, mono: Monomial, coeff: Rational = 1) -> "AlgElement":
        return AlgElement(gens, {mono: coeff})

    # --- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "AlgElement"):
        if self.gens != other.gens:
            raise GeneratorSetMismatch("elements over different generator sets")

    def __add__(self, other: "AlgElement") -> "AlgElement":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return AlgElement(self.gens, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.gens == other.gens and self.terms == other.terms

    def __hash__(self):
        return hash((self.gens, frozenset(self.terms.items())))

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda mc: mc[0].sort_key(self.gens))
        return f"AlgElement({_format_sum(self.gens, items)})"


def _format_sum(gens: GenSet, terms: Iterable[tuple[Monomial, Rational]]) -> str:
    """The text of a sum from its nonzero (monomial, coefficient) terms, in
    the order given; "0" when there is none.  Every sum the package prints
    is written here: packed terms sorted by _format_terms, and the
    representatives of cohomology and derivation homology, which give their
    terms in basis order, the sort_key order within a degree."""
    parts = []
    for m, c in terms:
        mono = m.format(gens)
        if m.is_unit:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def _format_terms(gens: GenSet, terms: Iterable[tuple[int, Rational]]) -> str:
    """The text of a sum of packed terms (key, coefficient) in sort_key
    order: a d line of a model file, or the d(d(g)) of a NotClosed error."""
    printed = [(gens.unpack(key), c) for key, c in terms]
    printed.sort(key=lambda t: t[0].sort_key(gens))
    return _format_sum(gens, printed)


def basis_in_degree(gens: GenSet, n: int) -> list[Monomial]:
    """All normal-form monomials of total degree n, in graded-lex order.

    The degree basis gens.keys(n), unpacked: for output and tests, as the
    computations read the keys.  The count table refuses an oversized
    degree before any list is built.
    """
    return [gens.unpack(k) for k in gens.keys(n)]


class _Packing:
    """The packed monomials over one GenSet, and the masks the kernel reads.

    A monomial is one int.  The exponent (0 or 1) of the j-th odd generator
    is bit j; that of each even generator is a DIGIT-bit field above the odd
    bits, in declaration order.  So a product is a sum, two monomials share
    an odd generator when their odd bits AND to nonzero, and the odd
    generators of a monomial in a set of positions are its bits under a
    mask: below[i] holds those before gens[i].  bits[i] is the field of
    gens[i] in place: a key holds gens[i] iff key & bits[i].
    """

    __slots__ = ("gens", "shift", "field", "limit", "odd", "below", "bits")

    def __init__(self, gens: GenSet):
        odd = [g.degree % 2 for g in gens.gens]
        shift, below, field, j, at = [], [0], [], 0, odd.count(1)  # odd bits, then the fields
        for o in odd:
            if o:
                shift.append(j)
                field.append(1)
                j += 1
            else:
                shift.append(at)
                field.append((1 << DIGIT) - 1)
                at += DIGIT
            below.append((1 << j) - 1)
        self.gens, self.shift, self.below, self.field, self.odd = gens, shift, below, field, below[-1]
        self.limit = [f >> 1 or 1 for f in field]  # so a sum of two never carries
        self.bits = [f << s for f, s in zip(field, shift)]

    def pack(self, exponents: Iterable[tuple[int, int]]) -> int:
        key, limit, shift = 0, self.limit, self.shift
        for i, e in exponents:
            if e > limit[i]:
                raise CombinatorialBlowup(
                    f"exponent {e} of {self.gens[i].name} is more than {limit[i]},"
                    " the most a packed monomial holds"
                )
            key += e << shift[i]
        return key

    def unpack(self, key: int) -> tuple[tuple[int, int], ...]:
        out = []
        for i, s in enumerate(self.shift):
            e = key >> s & self.field[i]
            if e:
                out.append((i, e))
        return tuple(out)

    def degree(self, key: int) -> int:
        return sum((key >> s & f) * g.degree for s, f, g in zip(self.shift, self.field, self.gens))

    def product(self, factors: Iterable[tuple[int, int]], key: int = 0) -> tuple[int, int]:
        """The packed monomial key times a word of (generator index, positive
        exponent) factors, as (sign, packed monomial): sign is the Koszul sign
        of bringing the odd generators into order, or 0 when one of them
        repeats.  CombinatorialBlowup for an exponent a field cannot hold."""
        swaps = 0
        for i, e in factors:
            s, f = self.shift[i], self.field[i]
            if f == 1:  # an odd generator, which moves left past those of key above it
                if e > 1 or key >> s & 1:
                    return 0, key
                swaps += ((key & self.odd) >> s).bit_count()
            elif (key >> s & f) + e > self.limit[i]:
                self.pack(((i, (key >> s & f) + e),))  # raises, naming the generator
            key += e << s
        return -1 if swaps & 1 else 1, key


def _compile(gens: GenSet, images: Mapping[int, Sequence], parity: int) -> tuple:
    """Generator images {g: ((key, coeff), ...)}, the packed form of
    SullivanModel.images, compiled for _leibniz as an operator of one
    parity: for each g with a nonzero image, in index order, (shift, field,
    unit, terms), each term (key, odd bits, sign mask, coeff).

    The sign mask is the XOR of the odd generators strictly between g and
    each odd factor of the term and, for an odd operator, of those before g:
    the Koszul sign of the term at a monomial is the parity of the odd
    generators of the rest (the monomial less one g) under the mask.
    """
    p, out = gens._packing, []
    for g in sorted(images):
        below, through, odd = p.below[g], p.below[g + 1], p.odd
        prefix = below if parity % 2 else 0
        compiled = []
        for key, c in images[g]:
            mask, bits = prefix, key & odd
            while bits:
                low = bits & -bits  # an odd factor x: those strictly between x and g
                mask ^= below ^ ((low << 1) - 1) if low & below else (low - 1) ^ through
                bits ^= low
            compiled.append((key, key & odd, mask, c))
        if compiled:
            out.append((p.shift[g], p.field[g], 1 << p.shift[g], tuple(compiled)))
    return tuple(out)


def _leibniz(images: tuple, key: int, out: dict, coeff: Rational = 1) -> dict:
    """Add coeff times the image of the packed monomial key under compiled
    images (_compile) to out, and return out.

    For each generator g of the monomial with an image, one g comes off,
    leaving rest, and each term of the image goes on: a term sharing an odd
    generator with rest gives zero, any other adds rest + term times the
    exponent of g and the Koszul sign under the term's mask.
    """
    for shift, field, unit, terms in images:
        e = key >> shift & field
        if e:
            rest, e = key - unit, e * coeff
            for tkey, odd, mask, c in terms:
                if not rest & odd:
                    k = rest + tkey
                    out[k] = out.get(k, 0) + (-e * c if (rest & mask).bit_count() & 1 else e * c)
    return out


def _sum(images: tuple, terms: Iterable[tuple[int, Rational]]) -> dict[int, Rational]:
    """The image of sum coeff*key over packed terms under compiled images,
    without the terms that cancel."""
    out: dict[int, Rational] = {}
    for key, coeff in terms:
        for k, c in _leibniz(images, key, {}).items():
            if c:
                out[k] = out.get(k, 0) + coeff * c
    return {k: c for k, c in out.items() if c}

"""Catalogs of fibrations over a fixed base, enumeration, and the finiteness gate."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import AlgElement, Generator, Monomial, apply_images
from .derivations import RELATIVE, DerComplex, dual_frame
from .errors import CombinatorialBlowup, DuplicateId, FiberMismatch, NotFiniteAtBound
from .invariants import (
    DEFAULT_WINDOW,
    GottliebResult,
    _image_on_cycles,
    finiteness_window,
    top_shift,
)
from .linalg import RatMatrix, Subspace
from .model import RelativeModel, SullivanModel, trivial_fibration

# Most candidate differentials an enumeration may try; above it the count
# alone is reported.
MAX_CANDIDATES = 10**6


@dataclass
class Catalog:
    """A family of fibrations sharing one fiber model."""

    fiber: SullivanModel
    entries: list[tuple[str, RelativeModel]] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for key, entry in self.entries:
            if key in seen:
                raise DuplicateId(f"duplicate catalog id {key!r}")
            seen.add(key)
            if (
                entry.fiber.gens != self.fiber.gens
                or entry.fiber.diff != self.fiber.diff
            ):
                raise FiberMismatch(f"catalog entry {key!r} has a different fiber")

    def realized_subspaces(self) -> dict[str, Subspace]:
        """fibre_gottlieb(entry).total() per entry, from one twisted complex per base.

        The entries over one base are read as twists of one trivial
        fibration (_Twists).  They are visited in catalog order, and each
        group builds what an entry needs in the order fibre_gottlieb would,
        so an error is raised by the entry whose fibre_gottlieb raises first.
        """
        groups: list[_Twists] = []
        out = {}
        for key, entry in self.entries:
            group = next((g for g in groups if g.holds(entry)), None)
            if group is None:
                group = _Twists(entry)
                groups.append(group)
            out[key] = group.realized(entry)
        return out

    def check_finite(self, window: int = DEFAULT_WINDOW) -> None:
        """Raise NotFiniteAtBound naming every entry that fails the finiteness window."""
        _, offenders = _split_finite(self.entries, window)
        if offenders:
            raise NotFiniteAtBound(
                "total spaces failed the finiteness gate: " + ", ".join(offenders)
            )


class _Twists:
    """The entries over one base as twists of the trivial fibration T, for one call.

    An entry's D is d_T plus the terms of its D(w) that contain a base
    generator: D = d_T + sum_s c_s theta_s, theta_s sending the slot's fibre
    generator w_s to its monomial m_s.  The boundary is linear in D, so at
    shift n it is delta_T^n + sum_s c_s B_s^n with B_s^n = [theta_s, -].
    The slices and the evaluation depend only on the generators, so the
    relative complex of the group's first entry gives T's; delta_T^n and each
    B_s^n are built from it once, on first use.  The image at shift n
    depends only on the terms c_s theta_s whose B_s^n or B_s^(n+1) is
    nonzero, so it is computed once per shift and such terms.  A group also
    shares the bound, which the slices check.
    """

    def __init__(self, entry):
        self.cx = DerComplex(entry, RELATIVE)
        self.base, self.bound, self.fiber = entry.base, entry.bound, entry.fiber
        self.untwisted, _ = _split_twist(entry)  # d_T, in monomial_images form
        self._deltas: dict[int, RatMatrix] = {}  # n -> delta_T^n
        self._parts: dict[tuple, Optional[RatMatrix]] = {}  # (slot, n) -> B_s^n, None if zero
        self._images: dict[tuple, Subspace] = {}  # (n, live terms at n, at n + 1) -> image

    def holds(self, entry) -> bool:
        """True when the entry twists this group's T: same base and bound."""
        return (
            entry.bound == self.bound
            and entry.base.gens == self.base.gens
            and entry.base.diff == self.base.diff
        )

    def _part(self, slot: tuple, n: int) -> Optional[RatMatrix]:
        """B_s^n, None when it is zero."""
        if (slot, n) not in self._parts:
            i, exponents = slot
            part = self.cx.bracket(n, {i: ((exponents, 1),)})
            self._parts[slot, n] = None if part.is_zero() else part
        return self._parts[slot, n]

    def _live(self, n: int, twist: list) -> tuple:
        """The terms of the twist whose B_s^n is nonzero."""
        return tuple((s, c) for s, c in twist if self._part(s, n) is not None)

    def _boundary(self, n: int, live: tuple) -> RatMatrix:
        """delta_T^n + sum c_s B_s^n over the live terms."""
        if n not in self._deltas:
            self._deltas[n] = self.cx.bracket(n, self.untwisted)
        return _twisted(self._deltas[n], [(self._part(s, n), c) for s, c in live])

    def realized(self, entry) -> Subspace:
        """fibre_gottlieb(entry).total(), with entry one of this group's twists."""
        twist = sorted(_split_twist(entry)[1])  # equal twists, equal keys
        per = {}
        for n in range(1, top_shift(self.fiber) + 1):
            frame = dual_frame(self.fiber, n)
            if not frame:
                continue
            key = (n, self._live(n, twist), self._live(n + 1, twist))
            if key not in self._images:
                d_out, d_in = self._boundary(n, key[1]), self._boundary(n + 1, key[2])
                self._images[key] = _image_on_cycles(self.cx.evaluation(n), d_out, d_in, frame)
            per[n] = self._images[key]
        return GottliebResult(self.fiber, per, "catalog").total()


def _split_twist(entry) -> tuple[dict, list]:
    """(d_T, slot terms) of an entry's D.

    d_T is D without the terms of D(w) that contain a base generator, in
    monomial_images form; the slot terms are those, as ((index of w,
    exponents of m), coefficient).
    """
    untwisted, twist = {}, []
    for i, terms in entry.total.images.items():
        if not entry.is_base_index(i):
            kept = []
            for exponents, c in terms:
                if any(entry.is_base_index(j) for j, _ in exponents):
                    twist.append(((i, exponents), c))
                else:
                    kept.append((exponents, c))
            terms = tuple(kept)
        if terms:
            untwisted[i] = terms
    return untwisted, twist


def _twisted(delta: RatMatrix, parts: list[tuple[RatMatrix, Fraction]]) -> RatMatrix:
    """delta + sum c * part, column by column."""
    if not parts:
        return delta
    columns = [dict(col) for col in delta.columns]
    for part, c in parts:
        for acc, col in zip(columns, part.columns):
            for r, v in col.items():
                acc[r] = acc.get(r, 0) + c * v
    return RatMatrix(delta.rows, columns)


def _split_finite(entries, window: int):
    """(entries whose total space passes finiteness_window, ids of the rest)."""
    kept, offenders = [], []
    for key, entry in entries:
        finite, _, _ = finiteness_window(entry, window)
        if finite:
            kept.append((key, entry))
        else:
            offenders.append(key)
    return kept, offenders


def enumerate_fibrations(
    fiber: SullivanModel,
    base: SullivanModel,
    coeff_set: Sequence = (0, 1),
    require_finite: bool = False,
    window: int = DEFAULT_WINDOW,
) -> Catalog:
    """All relative models D(w) = d(w) + sum c_m m over the given coefficients.

    Each candidate twists the trivial fibration: the monomials m have degree
    |w| + 1 and contain at least one base generator (base exponents are
    thereby forced by degree); assignments with D.D != 0 are discarded, and
    the finiteness gate is applied on request.  D.D is decided from terms
    computed once per slot (_square_terms), so only the closed candidates
    are built, all over the trivial fibration's generator set.
    """
    trivial = trivial_fibration(fiber, base)
    combined = trivial.total.gens
    slots: list[tuple[Generator, Monomial]] = [
        (combined.get(w.name), mono)
        for w in fiber.gens
        for mono in combined.basis(w.degree + 1)
        if trivial.monomial_has_base(mono)
    ]
    # zero first: the first candidate is the trivial fibration
    coeffs = sorted({Fraction(0), *map(Fraction, coeff_set)}, key=lambda c: (c != 0, c))
    total = len(coeffs) ** len(slots)
    if total > MAX_CANDIDATES:
        raise CombinatorialBlowup(
            f"{total} candidate differentials exceed the cap of {MAX_CANDIDATES}"
        )
    linear, quadratic = _square_terms(trivial.total, slots)
    texts = [mono.format(combined) for _, mono in slots]
    untwisted = {w.name: trivial.total.diff_of(w.name).terms for w in fiber.gens}
    entries: list[tuple[str, RelativeModel]] = []
    for assignment in itertools.product(coeffs, repeat=len(slots)):
        square: dict[tuple[int, Monomial], Fraction] = {}
        for s, terms in linear:
            _add_scaled(square, terms, assignment[s])
        for s, t, terms in quadratic:
            _add_scaled(square, terms, assignment[s] * assignment[t])
        if any(square.values()):
            continue
        total_diff = {name: dict(terms) for name, terms in untwisted.items()}
        added: list[str] = []
        for (w, mono), text, c in zip(slots, texts, assignment):
            if c:
                # a slot monomial contains a base generator, no term of d(w) does
                total_diff[w.name][mono] = c
                coeff = "" if c == 1 else f"{c}*"
                added.append(f"D{w.name}+={coeff}{text}")
        key = "; ".join(added) if added else "trivial"
        # the constructor validates again: its D.D = 0 check stays the authority
        entry = RelativeModel(
            base,
            fiber.gens,
            {name: AlgElement(combined, terms) for name, terms in total_diff.items()},
            fiber_diff=dict(fiber.diff),
            name=key,
            bound=fiber.bound,
        )
        entries.append((key, entry))
    if require_finite:
        entries, _ = _split_finite(entries, window)
    return Catalog(fiber, entries)


def _square_terms(total: SullivanModel, slots: list[tuple[Generator, Monomial]]):
    """D.D of a candidate as a quadratic form in its slot coefficients c_s.

    With theta_s the derivation sending the slot's generator w_s to its
    monomial m_s, a candidate is D = d + sum c_s theta_s, so on a generator
    w of the total (d.d = 0, and theta_s kills every base element)

        D.D(w) = sum_s c_s (theta_s(dw) + [w_s = w] d(m_s))
               + sum_{s, t: w_t = w} c_s c_t theta_s(m_t).

    Returns the nonzero pieces as lists of ((index of w, monomial), coeff):
    [(s, linear piece of s)] and [(s, t, theta_s(m_t) at w_t)].
    """
    gens = total.gens
    diffs = [(gens.get(name).index, dw) for name, dw in total.diff.items()]
    monos = [AlgElement.monomial(gens, m) for _, m in slots]
    linear, quadratic = [], []
    for s, (w, m) in enumerate(slots):
        theta = {w.index: ((m.exponents, 1),)}
        piece: dict[tuple[int, Monomial], Fraction] = {}
        for i, dw in diffs:
            _add_scaled(piece, _keyed(i, apply_images(gens, theta, 1, dw)), 1)
        _add_scaled(piece, _keyed(w.index, total.d(monos[s])), 1)
        if any(piece.values()):
            linear.append((s, [(k, c) for k, c in piece.items() if c]))
        for t, (wt, _) in enumerate(slots):
            image = _keyed(wt.index, apply_images(gens, theta, 1, monos[t]))
            if image:
                quadratic.append((s, t, image))
    return linear, quadratic


def _keyed(i: int, el: AlgElement) -> list[tuple[tuple[int, Monomial], Fraction]]:
    """The terms of el as the value of generator i."""
    return [((i, m), c) for m, c in el.terms.items()]


def _add_scaled(acc: dict, terms, c) -> None:
    """acc += c * terms, for terms given as (key, coefficient) pairs."""
    if c:
        for key, v in terms:
            acc[key] = acc.get(key, 0) + c * v

"""Catalogs of fibrations over a fixed base, enumeration, and the finiteness gate."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .algebra import AlgElement, Generator, Monomial, apply_images
from .errors import CombinatorialBlowup, DuplicateId, FiberMismatch, NotFiniteAtBound
from .invariants import DEFAULT_WINDOW, fibre_gottlieb, finiteness_window
from .linalg import Subspace
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
        """fibre_gottlieb total subspace per entry."""
        return {key: fibre_gottlieb(entry).total() for key, entry in self.entries}

    def check_finite(self, window: int = DEFAULT_WINDOW) -> None:
        """Raise NotFiniteAtBound naming every entry that fails the finiteness window."""
        _, offenders = _split_finite(self.entries, window)
        if offenders:
            raise NotFiniteAtBound(
                "total spaces failed the finiteness gate: " + ", ".join(offenders)
            )


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

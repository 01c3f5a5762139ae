"""Catalogs of fibrations over a fixed base, enumeration, and the finiteness gate."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .algebra import AlgElement, Monomial, basis_in_degree
from .errors import CombinatorialBlowup, DuplicateId, FiberMismatch, NotClosed, NotFiniteAtBound
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
    the finiteness gate is applied on request.
    """
    trivial = trivial_fibration(fiber, base)
    combined = trivial.total.gens
    untwisted = {name: trivial.total.diff[name] for name in fiber.diff}
    slots: list[tuple[str, Monomial]] = [
        (w.name, mono)
        for w in fiber.gens
        for mono in basis_in_degree(combined, w.degree + 1)
        if trivial.monomial_has_base(mono)
    ]
    # zero first: the first candidate is the trivial fibration
    coeffs = sorted({Fraction(0), *map(Fraction, coeff_set)}, key=lambda c: (c != 0, c))
    total = len(coeffs) ** len(slots)
    if total > MAX_CANDIDATES:
        raise CombinatorialBlowup(
            f"{total} candidate differentials exceed the cap of {MAX_CANDIDATES}"
        )
    entries: list[tuple[str, RelativeModel]] = []
    for assignment in itertools.product(coeffs, repeat=len(slots)):
        total_diff = dict(untwisted)
        added: list[str] = []
        for (wname, mono), c in zip(slots, assignment):
            if c:
                term = AlgElement.monomial(combined, mono, c)
                total_diff[wname] = total_diff.get(wname, AlgElement.zero(combined)) + term
                coeff = "" if c == 1 else f"{c}*"
                added.append(f"D{wname}+={coeff}{mono.format(combined)}")
        key = "; ".join(added) if added else "trivial"
        try:
            entry = RelativeModel(
                base, fiber.gens, total_diff, fiber_diff=dict(fiber.diff), name=key,
                bound=fiber.bound,
            )
        except NotClosed:
            continue
        entries.append((key, entry))
    if require_finite:
        entries, _ = _split_finite(entries, window)
    return Catalog(fiber, entries)

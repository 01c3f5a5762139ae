"""Catalogs of fibrations over a fixed base, enumeration, and the finiteness gate."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .algebra import _compile, _exact, _sum
from .derivations import RELATIVE, DerComplex, dual_frame, frame_degrees
from .errors import CombinatorialBlowup, DuplicateId, FiberMismatch, NotFiniteAtBound
from .invariants import (
    DEFAULT_WINDOW, GottliebResult, _evaluation_shift, _image_on_cycles, finiteness_window, top_shift
)
from .linalg import Subspace, _subtract
from .model import RelativeModel, SullivanModel, _product, _relative

# Most candidate differentials an enumeration may try; above it the count
# alone is reported.
MAX_CANDIDATES = 10**6


class Catalog:
    """A family of fibrations sharing one fiber model.

    Every entry is read one way: as its slot coefficients over the trivial
    fibration of its base and bound (_Twist).  Given entries are checked and
    grouped at once and kept as given; an enumerated catalog builds the
    RelativeModels of its entries on first read."""

    def __init__(self, fiber: SullivanModel, entries: Sequence = (), twists: Optional[list] = None):
        self.fiber = fiber
        self._entries = None if twists is not None else list(entries)
        self._twists = twists or []  # (id, _Twist, {slot: coefficient}) per entry
        groups: list[_Twist] = []  # one per base and bound
        seen, fiber_d = set(), _d(fiber)
        for key, entry in self._entries or ():
            if key in seen:
                raise DuplicateId(f"duplicate catalog id {key!r}")
            seen.add(key)
            if entry.fiber.gens != self.fiber.gens or _d(entry.fiber) != fiber_d:
                raise FiberMismatch(f"catalog entry {key!r} has a different fiber")
            group = next((g for g in groups if g.holds(entry)), None)
            if group is None:
                groups.append(group := _Twist(self.fiber, entry.base, entry.bound))
            self._twists.append((key, group, group.read(entry)))

    def __len__(self) -> int:
        return len(self._twists)

    @property
    def entries(self) -> list[tuple[str, RelativeModel]]:
        """The (id, fibration) pairs in catalog order."""
        if self._entries is None:
            self._entries = [(key, twist.entry(key, c)) for key, twist, c in self._twists]
        return self._entries

    def realized_subspaces(self) -> dict[str, Subspace]:
        """fibre_gottlieb(entry).total() per entry, in catalog order, each built
        in fibre_gottlieb's order: an error comes from the entry whose
        fibre_gottlieb raises first."""
        return {key: twist.realized(c) for key, twist, c in self._twists}

    def check_finite(self, window: int = DEFAULT_WINDOW) -> None:
        """Raise NotFiniteAtBound naming every entry that fails the finiteness window."""
        offenders = [key for key, entry in self.entries if not finiteness_window(entry, window).finite]
        if offenders:
            raise NotFiniteAtBound("total spaces failed the finiteness gate: " + ", ".join(offenders))


def _d(m: SullivanModel) -> dict:
    """m's d as {index: {key: coefficient}}: over one generator set, two
    models have the same d exactly when these are equal, in any term order."""
    return {i: dict(terms) for i, terms in m.images.items()}


class _Twist:
    """The fibrations with one fibre over one base and bound, each a twist of
    their trivial fibration T by its slot coefficients c:
    D(w) = D_T(w) + sum of c_s m_s over the slots s = (index of w_s, packed
    m_s) with w_s = w.  Each m_s holds a base generator, so each twist's
    fibre is T's.

    The boundary is linear in D, so at shift n it is delta_T^n, from T's
    relative DerComplex, plus each nonzero c_s times B_s^n = [theta_s, -],
    theta_s sending w_s to m_s.  Per frame degree n it keeps evaluation's
    checked positions and the rows of delta_T^n and of each B_s^n, each built
    once (_shift).  realized sums rows once per distinct such terms at n, keeps
    each image once per value, and builds one total per tuple of image values.
    """

    def __init__(self, fiber: SullivanModel, base: SullivanModel, bound: Optional[int]):
        self.trivial = _product(fiber, base, bound)
        self.fiber = self.trivial.fiber
        shifts = frame_degrees(self.fiber, top_shift(self.fiber))
        self.frames = [(n, dual_frame(self.fiber, n)) for n in shifts]
        self._shifts: dict = {}  # n -> see _shift
        self._images: dict[tuple, Subspace] = {}  # (n, nonzero terms at n) -> image
        self._totals: dict[tuple, Subspace] = {}  # the images, one per frame -> their sum
        self._values: dict[Subspace, Subspace] = {}  # each image, kept once per value

    @cached_property
    def cx(self) -> DerComplex:
        """T's relative complex: slices, delta_T and evaluation."""
        return DerComplex(self.trivial, RELATIVE)

    def holds(self, entry: RelativeModel) -> bool:
        """True when the entry twists T: same base and bound."""
        t = self.trivial
        same_base = entry.base.gens == t.base.gens and _d(entry.base) == _d(t.base)
        return entry.bound == t.bound and same_base

    def read(self, entry: RelativeModel) -> dict:
        """A given entry's slot coefficients: the terms of D(w) holding a base generator, as
        {(index of w, packed m): coefficient}, integral ones ints as the images hold them.
        The entry's total has T's layout, so its keys are T's."""
        k = self.trivial.base_size  # the base generators lead the total
        held = self.trivial.total.gens.mask(k)
        return {
            (i, key): c
            for i, terms in entry.total.images.items()
            if i >= k
            for key, c in terms
            if key & held
        }

    def total(self, c: dict, name: str) -> SullivanModel:
        """The total space of the twist by c: T's images, each twisted
        generator's slot terms after its own (no term of D_T(w) holds a base
        generator), built packed, so only its D.D = 0 is checked again."""
        t, images = self.trivial, dict(self.trivial.total.images)
        for (i, key), v in c.items():
            images[i] = images.get(i, ()) + ((key, v),)
        return SullivanModel._packed(t.total.gens, images, t.bound, name)

    def entry(self, key: str, c: dict) -> RelativeModel:
        t, total = self.trivial, self.total(c, key)
        return _relative(t.base, t.fiber.gens, total.gens, total.images, key, t.bound)

    def _shift(self, n: int) -> tuple:
        """The positions, delta_T^n's rows and {slot: B_s^n's rows, None when zero} at
        frame degree n, built on first use, the first two through _evaluation_shift."""
        if n not in self._shifts:
            self._shifts[n] = (*_evaluation_shift(self.cx, n), {})
        return self._shifts[n]

    def realized(self, c: dict) -> Subspace:
        """fibre_gottlieb(E).total() for the twist E by the slot coefficients c.

        Evaluation kills every B_s^{n+1}, whose values lie in the base ideal,
        so the image at shift n reads only the terms whose B_s^n is nonzero,
        and its check against delta_T^{n+1} is made once per shift."""
        terms = sorted(c.items())
        per = {}
        for n, frame in self.frames:
            positions, delta, brackets = self._shift(n)
            for s, _ in terms:
                if s not in brackets:
                    part = self.cx.bracket(n, {s[0]: ((s[1], 1),)})
                    brackets[s] = None if part.is_zero() else part.row_lines()
            key = (n, tuple((s, v) for s, v in terms if brackets[s]))
            if key not in self._images:
                rows = [dict(row) for row in delta]
                for s, v in key[1]:
                    for acc, row in zip(rows, brackets[s]):
                        _subtract(acc, -v, row)
                image = _image_on_cycles(positions, rows, frame)
                self._images[key] = self._values.setdefault(image, image)
            per[n] = self._images[key]
        images = tuple(per.values())
        total = self._totals.get(images)
        if total is None:
            total = self._totals[images] = GottliebResult(self.fiber, per).total()
        return total


def _closed(total: SullivanModel, slots: list[tuple[int, int]], coeffs: list) -> list[tuple]:
    """The vectors c over coeffs, one coefficient per slot, for which
    total's d + sum_s c_s theta_s squares to zero, in itertools.product order.

    Depth first: slot u takes each coefficient in turn (_visit), the search
    goes on to slot u + 1 while every coordinate of D.D completed so far is
    zero, and backs up once slot u has tried them all.  The sums are ints
    when all coefficients and pieces are integral, Fractions otherwise."""
    if not slots:
        return [()]
    pieces, complete, size = _square_terms(total, slots)
    values = [*coeffs, *(v for per in pieces for *_, piece in per for _, v in piece)]
    num = int if all(v.denominator == 1 for v in values) else Fraction
    pieces = [[(s, t, [(k, num(v)) for k, v in p]) for s, t, p in per] for per in pieces]
    coeffs, vector, found = [num(c) for c in coeffs], [0] * len(pieces), []
    search = (pieces, complete, vector, acc := [0] * size)
    left = [iter(coeffs)]  # per assigned slot and the next one: coefficients not tried
    added: list[list] = []  # per assigned slot: the terms its coefficient added
    while left:
        u = len(left) - 1
        if len(added) > u:  # undo slot u's last coefficient
            for k, v in added.pop():
                acc[k] -= v
        c = next(left[u], None)
        if c is None:
            left.pop()
        elif (terms := _visit(search, u, c)) is not None:
            added.append(terms)
            if u + 1 < len(pieces):
                left.append(iter(coeffs))
            else:
                found.append(tuple(vector))
    return found


def _visit(search: tuple, u: int, c) -> Optional[list]:
    """One node of the closure search: slots before u are assigned, and every
    coordinate of D.D they complete is zero.  Sets slot u to c and adds its
    pieces to the sums; returns the terms added, or None (sums restored) when a
    coordinate slot u completes is not zero."""
    pieces, complete, vector, acc = search
    vector[u] = c
    added = []
    if c:  # with c_u = 0 no piece of slot u adds anything
        for s, t, piece in pieces[u]:
            f = c if t is None else vector[s] * vector[t]
            if f:
                added += [(k, f * v) for k, v in piece]
        for k, v in added:
            acc[k] += v
    if not any(acc[k] for k in complete[u]):
        return added
    for k, v in added:
        acc[k] -= v
    return None


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
    the finiteness gate is applied on request.  D.D is decided slot by slot
    from terms computed once per slot (_closed).  A closed candidate stays
    its coefficient vector: only its total space is built, from packed terms
    (_Twist.total), whose validation checks D.D = 0 again, and the gate reads
    that.  Coefficients are exact:
    ints, Fractions or rational strings; a float raises TypeError.
    """
    twist = _Twist(fiber, base, fiber.bound)
    trivial = twist.trivial
    combined = trivial.total.gens
    held = combined.mask(len(base.gens))  # a key & held holds a base generator
    slots = [(combined.get(w.name).index, key)
             for w in fiber.gens for key in combined.keys(w.degree + 1) if key & held]
    # zero first: the first candidate is the trivial fibration
    exact = (Fraction(c) if isinstance(c, str) else _exact(c) for c in coeff_set)
    coeffs = sorted({Fraction(0), *exact}, key=lambda c: (c != 0, c))
    size = len(coeffs) ** len(slots)
    if size > MAX_CANDIDATES:
        raise CombinatorialBlowup(f"{size} candidate differentials exceed the cap of {MAX_CANDIDATES}")
    texts = [(combined[w].name, combined.unpack(key).format(combined)) for w, key in slots]
    kept = []
    for vector in _closed(trivial.total, slots, coeffs):
        c = {s: v for s, v in zip(slots, vector) if v}
        added = [f"D{w}+={'' if v == 1 else f'{v}*'}{text}" for (w, text), v in zip(texts, vector) if v]
        key = "; ".join(added) or "trivial"
        # the total's validation checks D.D = 0 again: it stays the authority
        if not require_finite or finiteness_window(twist.total(c, key), window).finite:
            kept.append((key, twist, c))
    return Catalog(fiber, twists=kept)


def _square_terms(total: SullivanModel, slots: list[tuple[int, int]]):
    """D.D of a candidate as a quadratic form in its slot coefficients c_s.

    With theta_s the derivation sending the slot's generator w_s to its
    monomial m_s, a candidate is D = d + sum c_s theta_s, so on a generator
    w of the total (d.d = 0, and theta_s kills every base element)

        D.D(w) = sum_s c_s (theta_s(dw) + [w_s = w] d(m_s))
               + sum_{s, t: w_t = w} c_s c_t theta_s(m_t).

    Returns (pieces, complete, number of coordinates of D.D).  pieces[u] lists
    (u, None, linear piece of u) and (s, t, theta_s(m_t) at w_t) with max(s, t) = u,
    each nonzero, as [(coordinate, coefficient)]; complete[u] lists the
    coordinates no piece of a later slot reaches."""
    gens, bits = total.gens, total.gens._packing.bits
    coords: dict[tuple[int, int], int] = {}  # (generator index, packed key) -> coordinate
    last: dict[int, int] = {}  # coordinate -> last slot that reaches it
    pieces: list[list] = [[] for _ in slots]

    def file(s: int, t: Optional[int], terms: dict) -> None:
        u = s if t is None else max(s, t)
        piece = [(coords.setdefault(key, len(coords)), c) for key, c in terms.items() if c]
        last.update((k, max(last.get(k, u), u)) for k, _ in piece)
        if piece:
            pieces[u].append((s, t, piece))

    for s, (w, m) in enumerate(slots):
        theta = _compile(gens, {w: ((m, 1),)}, 1)  # once per slot, for every element
        linear: dict = {}
        images = [(i, _sum(theta, dw)) for i, dw in total.images.items()]
        for i, image in [*images, (w, _sum(total.operator, [(m, 1)]))]:
            for key, c in image.items():
                linear[i, key] = linear.get((i, key), 0) + c
        file(s, None, linear)
        for t, (v, mt) in enumerate(slots):
            if mt & bits[w]:  # theta_s(m_t) = 0 unless w_s divides m_t
                image = _sum(theta, [(mt, 1)])
                file(s, t, {(v, key): c for key, c in image.items()})
    complete: list[list] = [[] for _ in slots]
    for k, u in last.items():
        complete[u].append(k)
    return pieces, complete, len(coords)

"""Gottlieb-type invariants assembled from the derivation complexes.

Everything here reduces to exact linear algebra: homology of the derivation
complexes, images of evaluation/restriction maps inside the dual coordinate
space Hom(W^n, Q), long-exact-sequence checks, bounded finiteness
certificates for torus actions, and depth of chains of realized subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .derivations import ABSOLUTE, IDEAL, RELATIVE, DerComplex, _inverse, dual_frame, frame_degrees
from .errors import BaseNotDegreeTwo, CombinatorialBlowup, NotAComplex
from .linalg import Echelon, HomologySlice, Number, RatMatrix, Subspace
from .model import Cochains, ModelLike, RelativeModel, SullivanModel, formal_dimension_estimate
from .poset import poset_of_subspaces

# the finiteness window every caller uses unless told otherwise
DEFAULT_WINDOW = 6


def top_shift(m: ModelLike) -> int:
    """Largest shift with a possibly nonzero slice: the top generator degree."""
    return max((g.degree for g in m.fiber.gens), default=0)


# ----------------------------------------------------------------------
# Gottlieb subspaces


@dataclass
class GottliebResult:
    """Per-degree subspaces of Hom(W^n, Q), with a joint graded ambient."""

    fiber: SullivanModel
    per_degree: dict[int, Subspace]

    def degree(self, n: int) -> Subspace:
        if n in self.per_degree:
            return self.per_degree[n]
        return Subspace(dual_frame(self.fiber, n))

    def dims(self) -> dict[int, int]:
        return {n: s.dim for n, s in self.per_degree.items() if s.dim}

    def total(self) -> Subspace:
        """Direct sum over degrees inside the full dual frame Hom(W, Q)."""
        frame = tuple(f"{g.name}*" for g in self.fiber.gens)
        pos = {label: i for i, label in enumerate(frame)}
        vectors = []
        for n in sorted(self.per_degree):
            sub = self.per_degree[n]
            to_frame = [pos[label] for label in sub.ambient]
            vectors += (_moved(row, to_frame) for row in sub._echelon.rows.values())
        return Subspace(frame, vectors)


def _moved(v: Mapping[int, Number], positions: Sequence[Optional[int]]) -> dict:
    """v re-indexed by positions; an entry whose position is None is dropped."""
    return {positions[i]: c for i, c in v.items() if positions[i] is not None}


def _image_on_cycles(
    evaluation: Sequence[Optional[int]],
    d_out: RatMatrix,
    d_in: RatMatrix,
    frame: Sequence[str],
) -> Subspace:
    """Image under evaluation, read as positions into frame, of the cycles of d_out.

    The evaluation must kill the boundaries d_in, that is no entry of d_in
    may sit at a pair it keeps, otherwise the image on cycles is not well
    defined on homology; checked on every run.  The image is the kernel of
    the functionals on the frame that vanish on it: read through evaluation,
    the row space of d_out zero on every dropped pair.  One echelon of d_out,
    each kept pair j moved to column d_out.cols + evaluation[j], holds them
    as its rows pivoted on a kept pair.
    """
    if any(evaluation[r] is not None for col in d_in.columns for r in col):
        raise NotAComplex("evaluation does not kill boundaries")
    cols = d_out.cols
    index = [j if e is None else cols + e for j, e in enumerate(evaluation)]
    rows = Echelon(cols + len(frame), (_moved(r, index) for r in d_out.row_lines() if r)).rows
    vanishing = ({c - cols: x for c, x in row.items()} for p, row in rows.items() if p >= cols)
    return Subspace(frame, Echelon(len(frame), vanishing).kernel())


def gottlieb(m: ModelLike, max_degree: Optional[int] = None) -> GottliebResult:
    """Image of evaluation on absolute derivation homology, per degree."""
    return _evaluation_images(DerComplex(m, ABSOLUTE), max_degree)


def fibre_gottlieb(f: RelativeModel, max_degree: Optional[int] = None) -> GottliebResult:
    """Image of evaluation . restriction on relative derivation cycles.

    The restriction keeps each pair (w, 1) and evaluation keeps only those,
    so the composite is evaluation on the relative slice itself.
    """
    return _evaluation_images(DerComplex(f, RELATIVE), max_degree)


def _evaluation_images(cx: DerComplex, max_degree: Optional[int]) -> GottliebResult:
    fiber = cx.source.fiber
    top = max_degree if max_degree is not None else top_shift(fiber)
    per: dict[int, Subspace] = {}
    for n in frame_degrees(fiber, top):
        frame = dual_frame(fiber, n)
        per[n] = _image_on_cycles(cx.evaluation(n), cx.boundary(n), cx.boundary(n + 1), frame)
    return GottliebResult(fiber, per)


def connecting_images(f: RelativeModel) -> dict[int, Subspace]:
    """Per degree n, the dual image of the linear base-generator part of D in
    Hom(W^n, Q).

    The linear part is the sum of length-one base-generator monomials in
    D(w); its transpose spans the rational image of the connecting map.
    """
    out, images, k = {}, f.total.images, f.base_size  # the base generators lead the total
    for n in frame_degrees(f.fiber, top_shift(f)):
        diffs = [images.get(k + g.index, ()) for g in f.fiber.gens if g.degree == n]
        vectors = [
            {j: c for j, image in enumerate(diffs) for t, c in image if t == ((v.index, 1),)}
            for v in f.base.gens
            if v.degree == n + 1
        ]
        out[n] = Subspace(dual_frame(f.fiber, n), vectors)
    return out


# ----------------------------------------------------------------------
# long exact sequence of Remark-style ideal/relative/absolute complexes


@dataclass
class LesNodeReport:
    node: str  # e.g. "H_3(relative)"
    dim: int
    rank_in: int
    rank_out: int
    exact: bool


@dataclass
class LesReport:
    nodes: list[LesNodeReport] = field(default_factory=list)
    chain_level_ok: bool = True

    @property
    def exact(self) -> bool:
        return self.chain_level_ok and all(nd.exact for nd in self.nodes)


def les_check(f: RelativeModel, degrees: Sequence[int]) -> LesReport:
    """Verify exactness of the ideal -> relative -> absolute homology sequence.

    Checks the degreewise short exact sequence of slices and, once at each
    homology node of the given degrees, that the image of the incoming map
    equals the kernel of the outgoing one (composite zero + ranks add up).
    Each chain map sends a pair to one pair or to zero, so it is read as
    ``positions`` and its converse as their inverse.  An induced map's rank
    is the rank of the classes of its images of the source cycles, and
    out . in = 0 when out sends the rows of in's image echelon to zero
    classes; no representative, coordinate or induced matrix is built.
    """
    degrees = sorted(set(degrees))
    if not degrees:
        raise ValueError("les_check needs at least one degree")
    lo, hi = degrees[0], degrees[-1]
    if lo < 1:
        raise ValueError("les_check needs degrees >= 1")
    ideal, ab = DerComplex(f, IDEAL), DerComplex(f, ABSOLUTE)
    rel = ideal.relative  # one relative complex serves both scopes
    report = LesReport()
    # the deepest slices read, first: a bound overrun is reported from them
    ideal.homology(max(1, lo - 1))
    # chain-level short exactness per degree: the inclusion and the
    # restriction partition the relative pairs, and the restriction is a
    # bijection onto the absolute pairs
    inc, res, sections = {}, {}, {}
    for n in range(max(0, lo - 1), hi + 2):
        inc[n] = ideal.inclusion(n)[0]
        res[n] = rel.positions(ab, n)
        sections[n] = _inverse(res[n], ab.slice(n).dim)
        kept = [j for j, a in enumerate(res[n]) if a is not None]
        ok = (
            None not in inc[n]
            and sorted(inc[n] + kept) == list(range(rel.slice(n).dim))
            and sorted(res[n][j] for j in kept) == list(range(ab.slice(n).dim))
        )
        report.chain_level_ok = report.chain_level_ok and ok

    def connecting(n: int, z: Mapping[int, Number]) -> dict:
        """H_n(absolute) -> H_{n-1}(ideal) on a cycle: lift, boundary, pull back."""
        b = rel.boundary(n).apply(_moved(z, sections[n]))
        # the restriction kills exactly the ideal pairs
        if any(res[n - 1][j] is not None for j in b):
            raise NotAComplex("boundary of a lifted cycle left the ideal")
        return _moved(b, ideal.inclusion(n - 1)[1])

    # each map of the sequence: its source, its target, the shift it lowers
    # and its chain map on one vector
    maps = {
        "inclusion": (ideal, rel, 0, lambda n, v: _moved(v, inc[n])),
        "restriction": (rel, ab, 0, lambda n, v: _moved(v, res[n])),
        "connecting": (ab, ideal, 1, connecting),
    }
    images: dict[tuple[str, int], Echelon] = {}  # (map, shift) -> classes of its image

    def classes(name: str, n: int, vectors: Iterable[Mapping[int, Number]]) -> Echelon:
        """The classes of the vectors sent out of shift n by the named map."""
        _, target, down, move = maps[name]
        h = target.homology(n - down)
        return h.classes((move(n, v) for v in vectors), f"H_{n - down}({target.scope})")

    def node(label: str, h: HomologySlice, into: tuple[str, int], out: tuple[str, int]):
        for key in (into, out):
            if key not in images:
                images[key] = classes(*key, maps[key[0]][0].homology(key[1]).cycles)
        a, b = images[into], images[out]
        zero = not a.rank or not classes(*out, a.rows.values()).rank  # out . in = 0
        exact = zero and a.rank + b.rank == h.dim
        report.nodes.append(LesNodeReport(label, h.dim, a.rank, b.rank, exact))

    for n in degrees:
        node(f"H_{n}(relative)", rel.homology(n), ("inclusion", n), ("restriction", n))
        node(f"H_{n}(ideal)", ideal.homology(n), ("connecting", n + 1), ("inclusion", n))
        if n >= 2:
            node(f"H_{n}(absolute)", ab.homology(n), ("restriction", n), ("connecting", n))
    return report


# ----------------------------------------------------------------------
# finiteness windows and toral-rank certificates


@dataclass
class ToralCertificate:
    r: int
    finite_through: int
    verdict: str  # "certified" | "refuted-at-bound" | "inconclusive"
    top_nonzero: Optional[int] = None


def _pure_quotient_vanishes(m: SullivanModel, fd: int, window: int) -> bool:
    """True when Lambda Q/(d_s P) is zero from some degree on: then H(m) is finite.

    Q are the even generators, P the odd ones, and d_s p is the part of dp
    lying in Lambda Q.  Graded by word length in P, d is d_s (which lowers it
    by one) plus terms that raise it, so H(Lambda V, d_s) is the first page of
    a convergent spectral sequence for H(Lambda V, d).  That page is Koszul
    homology over Lambda Q: finitely generated and killed by the ideal
    (d_s P), so finite when the quotient is (Halperin, Trans. AMS 230, 1977;
    Felix-Halperin-Thomas, GTM 205, section 32).  A finite H vanishes above
    the formal dimension, which fd bounds (a contractible pair only raises
    it), so the window would agree.  The quotient is zero in every degree
    >= N once it is zero in every even degree of [N, N + s), s the largest
    even degree: peeling generators off a longer monomial lands it in that
    run.  The run never passes fd + window.  False means undecided, also when
    a degree is too large to build.
    """
    even = [g for g in m.gens if not g.is_odd]
    if not even:
        return True  # Lambda V is finite-dimensional
    to_q = {g.index: i for i, g in enumerate(even)}
    pure_parts = []  # (degree, terms over Q's indices) of each nonzero d_s p
    for p in (g for g in m.gens if g.is_odd):
        pure = [(t, c) for t, c in m.images.get(p.index, ()) if all(i in to_q for i, _ in t)]
        if pure:
            pure_parts.append((p.degree + 1, pure))
    if len(pure_parts) < len(even):
        # Krull's height theorem: r relations leave the quotient a dimension
        # of at least |Q| - r > 0, so it is infinite and no run is zero
        return False
    q = m.gens.even()
    relations = [  # the same terms over q
        (deg, [(q.pack((to_q[i], e) for i, e in t), c) for t, c in pure])
        for deg, pure in pure_parts
    ]
    s = max(g.degree for g in even)
    start = min(fd + 1, fd + window - s + 1)
    lo = max(start, 0)  # negative degrees are empty
    try:
        for n in range(lo + lo % 2, start + s, 2):
            index = {k: i for i, k in enumerate(q.keys(n))}
            ideal = Echelon(len(index))
            for r, pure in relations:
                for key in q.keys(n - r) if n >= r else ():
                    # key times d_s p, a sum of packed monomials as q has no odd
                    # generator; distinct terms give distinct products
                    ideal.add({index[key + t]: c for t, c in pure})
            if ideal.rank < len(index):
                return False
    except CombinatorialBlowup:
        return False
    return True


class Finiteness(NamedTuple):
    """One finiteness decision; ``[0]`` is the verdict, as perfbench's tracer reads it."""

    finite: bool
    fd: Optional[int]
    cochains: Cochains  # of the total; unread when the pure quotient decided
    top_nonzero: Optional[int]  # highest degree of the window where H is nonzero


def finiteness_window(model: ModelLike, window: int = DEFAULT_WINDOW) -> Finiteness:
    """Finiteness test: does H vanish on (fd, fd + window]?

    A True verdict is exact when the associated pure quotient certifies H
    finite; the Cochains is then unread.  Otherwise the window decides: one
    scan reads H down from fd + window to its first nonzero degree, and
    callers read more from the Cochains.
    """
    # the range must hold at least one degree, or every model passes vacuously
    if window < 1:
        raise ValueError(f"the finiteness window must be at least 1, got {window}")
    total = model.total
    cx = Cochains(total)
    fd = formal_dimension_estimate(total.gens)
    if fd is None:
        return Finiteness(False, None, cx, None)
    total.check_bound(fd + window)
    if _pure_quotient_vanishes(total, fd, window):
        return Finiteness(True, fd, cx, None)
    top = next((n for n in range(fd + window, fd, -1) if cx.homology(n).dim), None)
    return Finiteness(top is None, fd, cx, top)


def toral_certificate(f: RelativeModel, window: int = DEFAULT_WINDOW) -> ToralCertificate:
    """Bounded certificate that the fiber admits an almost-free torus action.

    Needs every base generator in degree 2 and D congruent to d modulo the
    base ideal (the latter is enforced by the RelativeModel invariants).
    """
    for g in f.base.gens:
        if g.degree != 2:
            raise BaseNotDegreeTwo(
                f"base generator {g.name} has degree {g.degree}, expected 2"
            )
    r = len(f.base.gens)
    finite, fd, cx, top_nonzero = finiteness_window(f, window)
    if fd is None:
        return ToralCertificate(r, -1, "inconclusive")
    if finite:
        return ToralCertificate(r, fd + window, "certified")
    # nonvanishing persists: refute (at this bound) when the top classes are
    # base-polynomial multiples, the signature of surviving t-powers
    base = f.total.gens.mask(r)
    base_only = [j for j, key in enumerate(cx.keys(top_nonzero)) if key and key & base == key]
    verdict = "refuted-at-bound" if cx.homology(top_nonzero).touches(base_only) else "inconclusive"
    return ToralCertificate(r, fd + window, verdict, top_nonzero)


# ----------------------------------------------------------------------
# depth


@dataclass
class DepthResult:
    depth: int
    witness: list[str]  # ids of a longest strictly decreasing chain


def depth_of_subspaces(subspaces: dict[str, Subspace]) -> DepthResult:
    """Longest strictly decreasing inclusion chain among realized subspaces.

    The count is the number of strict steps; a single realized subspace has
    depth 0 and an empty family depth -1.  Each step of the witness chain is
    named by the first witness of its poset node.
    """
    poset = poset_of_subspaces(subspaces)
    path = poset.longest_path()
    return DepthResult(len(path) - 1, [poset.nodes[i].witnesses[0] for i in path])

"""Gottlieb-type invariants assembled from the derivation complexes.

Everything here reduces to exact linear algebra: homology of the derivation
complexes, images of evaluation/restriction maps inside the dual coordinate
space Hom(W^n, Q), long-exact-sequence checks, bounded finiteness
certificates for torus actions, and depth of chains of realized subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .algebra import AlgElement, Monomial
from .derivations import (
    ABSOLUTE,
    IDEAL,
    RELATIVE,
    ComplexSlice,
    DerComplex,
    Derivation,
    _inverse,
    dual_frame,
    frame_degrees,
)
from .errors import BaseNotDegreeTwo, CombinatorialBlowup, NotAComplex
from .linalg import Echelon, HomologySlice, Number, RatMatrix, Subspace, _dense
from .model import Cochains, ModelLike, RelativeModel, SullivanModel, formal_dimension_estimate
from .poset import poset_of_subspaces

# the finiteness window every caller uses unless told otherwise
DEFAULT_WINDOW = 6


def top_shift(m: ModelLike) -> int:
    """Largest shift with a possibly nonzero slice: the top generator degree."""
    return max((g.degree for g in m.fiber.gens), default=0)


# ----------------------------------------------------------------------
# derivation homology


@dataclass
class DerHomology:
    dim: int
    slice: ComplexSlice
    representatives: list[dict]  # sparse coordinate vectors in the slice basis

    def derivations(self) -> list[Derivation]:
        gens, out = self.slice.value_gens, []
        for vec in self.representatives:
            terms: dict[int, dict] = {}  # generator index -> the monomial terms of its value
            for i, c in sorted(vec.items()):
                g, mono = self.slice.pair(i)
                terms.setdefault(g.index, {})[mono] = c
            values = {i: AlgElement(gens, t) for i, t in terms.items()}
            out.append(Derivation(gens, self.slice.degree, values))
        return out


def der_homology(cx: DerComplex, n: int) -> DerHomology:
    """H_n of one derivation complex, with representative cycles; a caller
    reading several degrees keeps one complex."""
    if n < 1:
        raise ValueError("derivation homology is computed for n >= 1")
    h = cx.homology(n)
    return DerHomology(h.dim, cx.slice(n), h.representatives)


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
        pos = {f"{g.name}*": i for i, g in enumerate(self.fiber.gens)}
        vectors = []
        for n in sorted(self.per_degree):
            sub = self.per_degree[n]
            for row in sub.rows:
                vec = [0] * len(frame)
                for label, c in zip(sub.ambient, row):
                    vec[pos[label]] = c
                vectors.append(vec)
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
    defined on homology; checked on every run.
    """
    if any(evaluation[r] is not None for col in d_in.columns for r in col):
        raise NotAComplex("evaluation does not kill boundaries")
    cycles = Echelon(d_out.cols, d_out.row_lines()).kernel()
    return Subspace(frame, [_dense(_moved(z, evaluation), len(frame)) for z in cycles])


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
    out = {}
    for n in frame_degrees(f.fiber, top_shift(f)):
        fiber_gens_n = [g for g in f.fiber.gens if g.degree == n]
        vectors = []
        for v in f.base.gens:
            if v.degree == n + 1:
                linear = Monomial(((f.total.gens.get(v.name).index, 1),))
                vectors.append([f.total.diff_of(w.name).coefficient(linear) for w in fiber_gens_n])
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


def _induced(cycles: Iterable[Mapping], h: HomologySlice) -> tuple[RatMatrix, int]:
    """The map sending the k-th source class to the class of the k-th cycle, and its rank."""
    m = RatMatrix._trusted(h.dim, list(map(h.coords, cycles)))
    return m, _rank(m)


def _rank(m: RatMatrix) -> int:
    return Echelon(m.rows, filter(None, m.columns)).rank


def _exact_at(node: str, h: HomologySlice, into: tuple, out: tuple) -> LesNodeReport:
    """image(into) = kernel(out) at h: out . into = 0 and rk into + rk out = dim h."""
    (a, rk_in), (b, rk_out) = into, out
    exact = not any(map(b.apply, filter(None, a.columns))) and rk_in + rk_out == h.dim
    return LesNodeReport(node, h.dim, rk_in, rk_out, exact)


def les_check(f: RelativeModel, degrees: Sequence[int]) -> LesReport:
    """Verify exactness of the ideal -> relative -> absolute homology sequence.

    Checks the degreewise short exact sequence of slices and, once at each
    homology node of the given degrees, that the image of the incoming map
    equals the kernel of the outgoing one (composite zero + ranks add up).
    Each chain map sends a pair to one pair or to zero, so it is read as
    ``positions``, its converse as their inverse, and the induced maps
    re-index representatives.
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
    inc, res = {}, {}
    for n in range(max(0, lo - 1), hi + 2):
        inc[n] = ideal.inclusion(n)[0]
        res[n] = rel.positions(ab, n)
        kept = [j for j, a in enumerate(res[n]) if a is not None]
        ok = (
            None not in inc[n]
            and sorted(inc[n] + kept) == list(range(rel.slice(n).dim))
            and sorted(res[n][j] for j in kept) == list(range(ab.slice(n).dim))
        )
        report.chain_level_ok = report.chain_level_ok and ok

    conn: dict[int, tuple[RatMatrix, int]] = {}  # n -> (connecting map, its rank)

    def connecting(n: int) -> tuple[RatMatrix, int]:
        """H_n(absolute) -> H_{n-1}(ideal) via lift, boundary, pull back."""
        if n not in conn:
            section = _inverse(res[n], ab.slice(n).dim)
            d = rel.boundary(n)
            bounds = [d.apply(_moved(rep, section)) for rep in ab.homology(n).representatives]
            # the restriction kills exactly the ideal pairs
            if any(res[n - 1][j] is not None for b in bounds for j in b):
                raise NotAComplex("boundary of a lifted cycle left the ideal")
            to_ideal = ideal.inclusion(n - 1)[1]
            conn[n] = _induced((_moved(b, to_ideal) for b in bounds), ideal.homology(n - 1))
        return conn[n]

    for n in degrees:
        h_ideal, h_rel, h_abs = ideal.homology(n), rel.homology(n), ab.homology(n)
        i_star = _induced((_moved(r, inc[n]) for r in h_ideal.representatives), h_rel)
        j_star = _induced((_moved(r, res[n]) for r in h_rel.representatives), h_abs)
        report.nodes.append(_exact_at(f"H_{n}(relative)", h_rel, i_star, j_star))
        report.nodes.append(_exact_at(f"H_{n}(ideal)", h_ideal, connecting(n + 1), i_star))
        if n >= 2:
            report.nodes.append(_exact_at(f"H_{n}(absolute)", h_abs, j_star, connecting(n)))
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

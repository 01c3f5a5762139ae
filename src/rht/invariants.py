"""Gottlieb-type invariants assembled from the derivation complexes.

Everything here reduces to exact linear algebra: homology of the derivation
complexes, images of evaluation/restriction maps inside the dual coordinate
space Hom(W^n, Q), long-exact-sequence checks, bounded finiteness
certificates for torus actions, classification of spaces, and depth of
chains of realized subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .algebra import AlgElement
from .derivations import (
    ABSOLUTE,
    IDEAL,
    RELATIVE,
    ComplexSlice,
    DerComplex,
    Derivation,
    dual_frame,
)
from .errors import BaseNotDegreeTwo, NotAComplex
from .linalg import Echelon, HomologySlice, RatMatrix, Subspace, _dense
from .model import Cochains, RelativeModel, SullivanModel, formal_dimension_estimate
from .poset import poset_of_subspaces

ModelLike = Union[SullivanModel, RelativeModel]


def _fiber_of(m: ModelLike) -> SullivanModel:
    return m.fiber if isinstance(m, RelativeModel) else m


def top_shift(m: ModelLike) -> int:
    """Largest shift with a possibly nonzero slice: the top generator degree."""
    return max(g.degree for g in _fiber_of(m).gens)


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
                g, mono = self.slice.pairs[i]
                terms.setdefault(g.index, {})[mono] = c
            values = {i: AlgElement(gens, t) for i, t in terms.items()}
            out.append(Derivation(gens, self.slice.degree, values))
        return out


def der_homology(m: ModelLike, n: int, scope: str = ABSOLUTE) -> DerHomology:
    """H_n of the chosen derivation complex, with representative cycles."""
    if n < 1:
        raise ValueError("derivation homology is computed for n >= 1")
    cx = DerComplex(m, scope)
    h = cx.homology(n)
    return DerHomology(h.dim, cx.slice(n), h.representatives)


# ----------------------------------------------------------------------
# Gottlieb subspaces


@dataclass
class GottliebResult:
    """Per-degree subspaces of Hom(W^n, Q), with a joint graded ambient."""

    fiber: SullivanModel
    per_degree: dict[int, Subspace]
    provenance: str  # "absolute" or a fibration id

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

    def basis_labels(self) -> list[str]:
        return self.total().basis_labels()


def _image_on_cycles(
    eval_matrix: RatMatrix,
    d_out: RatMatrix,
    d_in: RatMatrix,
    frame: Sequence[str],
) -> Subspace:
    """Image under evaluation of the cycles of d_out.

    The evaluation must kill the boundaries d_in, otherwise the image on
    cycles is not well defined on homology; checked on every run.
    """
    if not (eval_matrix @ d_in).is_zero():
        raise NotAComplex("evaluation does not kill boundaries")
    cycles = Echelon(d_out.cols, d_out.row_lines()).kernel()
    return Subspace(frame, [_dense(eval_matrix.apply(z), eval_matrix.rows) for z in cycles])


def gottlieb(m: ModelLike, max_degree: Optional[int] = None) -> GottliebResult:
    """Image of evaluation on absolute derivation homology, per degree."""
    return _evaluation_images(DerComplex(m, ABSOLUTE), max_degree, "absolute")


def fibre_gottlieb(f: RelativeModel, max_degree: Optional[int] = None) -> GottliebResult:
    """Image of evaluation . restriction on relative derivation cycles.

    The restriction keeps each pair (w, 1) and evaluation keeps only those,
    so the composite is evaluation on the relative slice itself.
    """
    return _evaluation_images(DerComplex(f, RELATIVE), max_degree, f.name or "fibration")


def _evaluation_images(
    cx: DerComplex, max_degree: Optional[int], provenance: str
) -> GottliebResult:
    fiber = _fiber_of(cx.source)
    top = max_degree if max_degree is not None else top_shift(fiber)
    per: dict[int, Subspace] = {}
    for n in range(1, top + 1):
        frame = dual_frame(fiber, n)
        if frame:
            per[n] = _image_on_cycles(cx.evaluation(n), cx.boundary(n), cx.boundary(n + 1), frame)
    return GottliebResult(fiber, per, provenance)


def connecting_image(f: RelativeModel, n: int) -> Subspace:
    """Dual image of the linear base-generator part of D in Hom(W^n, Q).

    The linear part is the sum of length-one base-generator monomials in
    D(w); its transpose spans the rational image of the connecting map.
    """
    frame = dual_frame(f.fiber, n)
    fiber_gens_n = [g for g in f.fiber.gens if g.degree == n]
    vectors = []
    for v in f.base.gens:
        if v.degree != n + 1:
            continue
        total_v = f.total.gens.get(v.name)
        row = []
        for w in fiber_gens_n:
            dw = f.total.diff_of(w.name)
            coeff = 0
            for mono, c in dw.terms.items():
                if mono.exponents == ((total_v.index, 1),):
                    coeff = c
            row.append(coeff)
        vectors.append(row)
    return Subspace(frame, vectors)


def connecting_images(f: RelativeModel) -> dict[int, Subspace]:
    out = {}
    for n in range(1, top_shift(f) + 1):
        if dual_frame(f.fiber, n):
            out[n] = connecting_image(f, n)
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


def _induced(map_matrix: RatMatrix, h_src: HomologySlice, h_tgt: HomologySlice) -> RatMatrix:
    return RatMatrix(
        h_tgt.dim, [h_tgt.coords(map_matrix.apply(rep)) for rep in h_src.representatives]
    )


def _rank(m: RatMatrix) -> int:
    return Echelon(m.rows, m.columns).rank


def les_check(f: RelativeModel, degrees: Sequence[int]) -> LesReport:
    """Verify exactness of the ideal -> relative -> absolute homology sequence.

    Checks the degreewise short exact sequence of slices and, at every
    homology node inside the requested range, that the image of the incoming
    map equals the kernel of the outgoing one (composite zero + ranks add up).
    """
    degrees = sorted(degrees)
    if not degrees:
        raise ValueError("les_check needs at least one degree")
    lo, hi = degrees[0], degrees[-1]
    if lo < 1:
        raise ValueError("les_check needs degrees >= 1")
    rel, ab = DerComplex(f, RELATIVE), DerComplex(f, ABSOLUTE)
    ideal = DerComplex(f, IDEAL, rel.cochains)  # both scopes read f.total
    report = LesReport()
    H = {}  # (scope, n) -> HomologySlice
    for n in range(max(1, lo - 1), hi + 2):
        for cx in (ideal, rel, ab):
            H[(cx.scope, n)] = cx.homology(n)
    # chain-level short exactness per degree
    inc, res = {}, {}
    for n in range(max(0, lo - 1), hi + 2):
        inc[n] = ideal.map_to(rel, n)
        res[n] = rel.map_to(ab, n)
        ok = (
            (res[n] @ inc[n]).is_zero()
            and _rank(res[n]) == ab.slice(n).dim
            and ideal.slice(n).dim + ab.slice(n).dim == rel.slice(n).dim
        )
        report.chain_level_ok = report.chain_level_ok and ok

    conn: dict[int, RatMatrix] = {}

    def connecting(n: int) -> RatMatrix:
        """H_n(absolute) -> H_{n-1}(ideal) via lift, boundary, pull back."""
        if n not in conn:
            lifted = rel.boundary(n) @ ab.map_to(rel, n)
            # the restriction kills exactly the ideal pairs
            left = res[n - 1] @ lifted
            if any(left.apply(rep) for rep in H[(ABSOLUTE, n)].representatives):
                raise NotAComplex("boundary of a lifted cycle left the ideal")
            to_ideal = rel.map_to(ideal, n - 1)
            conn[n] = _induced(to_ideal @ lifted, H[(ABSOLUTE, n)], H[(IDEAL, n - 1)])
        return conn[n]

    for n in degrees:
        i_star = _induced(inc[n], H[(IDEAL, n)], H[(RELATIVE, n)])
        j_star = _induced(res[n], H[(RELATIVE, n)], H[(ABSOLUTE, n)])
        # node H_n(relative): image(i) = kernel(j)
        dim_r = H[(RELATIVE, n)].dim
        exact_r = (j_star @ i_star).is_zero() and _rank(i_star) + _rank(j_star) == dim_r
        report.nodes.append(
            LesNodeReport(f"H_{n}(relative)", dim_r, _rank(i_star), _rank(j_star), exact_r)
        )
        # node H_n(ideal): image(connecting from n+1) = kernel(i)
        d_in = connecting(n + 1)
        dim_i = H[(IDEAL, n)].dim
        exact_i = (i_star @ d_in).is_zero() and _rank(d_in) + _rank(i_star) == dim_i
        report.nodes.append(
            LesNodeReport(f"H_{n}(ideal)", dim_i, _rank(d_in), _rank(i_star), exact_i)
        )
        # node H_n(absolute): image(j) = kernel(connecting to n-1)
        if n >= 2:
            d_out = connecting(n)
            dim_a = H[(ABSOLUTE, n)].dim
            exact_a = (d_out @ j_star).is_zero() and _rank(j_star) + _rank(d_out) == dim_a
            report.nodes.append(
                LesNodeReport(f"H_{n}(absolute)", dim_a, _rank(j_star), _rank(d_out), exact_a)
            )
    return report


# ----------------------------------------------------------------------
# finiteness windows: toral-rank certificates and classification


@dataclass
class ToralCertificate:
    r: int
    finite_through: int
    verdict: str  # "certified" | "refuted-at-bound" | "inconclusive"
    top_nonzero: Optional[int] = None


def finiteness_window(
    model: ModelLike, window: int = 6
) -> tuple[bool, Optional[int], Cochains]:
    """Bounded finiteness test: does H vanish on (fd, fd + window]?

    Returns (verdict, fd, the Cochains it read).  It reads H only in the
    window, up to its first nonzero degree; callers read more from it.
    """
    # the range must hold at least one degree, or every model passes vacuously
    if window < 1:
        raise ValueError(f"the finiteness window must be at least 1, got {window}")
    total = model.total if isinstance(model, RelativeModel) else model
    cx = Cochains(total)
    fd = formal_dimension_estimate(total.gens)
    if fd is None:
        return False, None, cx
    total.check_bound(fd + window)
    finite = all(cx.homology(n).dim == 0 for n in range(fd + 1, fd + window + 1))
    return finite, fd, cx


def toral_certificate(f: RelativeModel, window: int = 6) -> ToralCertificate:
    """Bounded certificate that the fiber admits an almost-free torus action.

    Needs every base generator in degree 2 and D congruent to d modulo the
    base ideal (the latter is enforced by the RelativeModel invariants).
    A window below 1 is rejected by finiteness_window: its range is empty.
    """
    for g in f.base.gens:
        if g.degree != 2:
            raise BaseNotDegreeTwo(
                f"base generator {g.name} has degree {g.degree}, expected 2"
            )
    r = len(f.base.gens)
    finite, fd, cx = finiteness_window(f, window)
    if fd is None:
        return ToralCertificate(r, -1, "inconclusive")
    top = fd + window
    if finite:
        return ToralCertificate(r, top, "certified")
    # nonvanishing persists: refute (at this bound) when the top classes are
    # base-polynomial multiples, the signature of surviving t-powers
    top_nonzero = max(n for n in range(fd + 1, top + 1) if cx.homology(n).dim)
    basis = cx.basis(top_nonzero)
    for rep in cx.homology(top_nonzero).representatives:
        for mono in (basis[j] for j in rep):
            if mono.exponents and all(f.is_base_index(i) for i, _ in mono.exponents):
                return ToralCertificate(r, top, "refuted-at-bound", top_nonzero)
    return ToralCertificate(r, top, "inconclusive", top_nonzero)


@dataclass
class ClassificationReport:
    chi_pi: int
    formal_dimension: Optional[int]
    pure: bool
    elliptic_at_bound: bool
    f0_candidate: bool
    cohomology_dims: dict[int, int] = field(default_factory=dict)
    window: int = 6


def classify(model: SullivanModel, window: int = 6) -> ClassificationReport:
    """Homotopy Euler characteristic, purity and the bounded finiteness test."""
    elliptic, fd, cx = finiteness_window(model, window)
    n_even = sum(1 for g in model.gens if not g.is_odd)
    chi_pi = n_even - (len(model.gens) - n_even)
    pure = model.is_pure
    dims = {} if fd is None else {n: cx.homology(n).dim for n in range(fd + window + 1)}
    f0 = pure and chi_pi == 0 and elliptic
    return ClassificationReport(chi_pi, fd, pure, elliptic, f0, dims, window)


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

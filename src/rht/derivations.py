"""Derivation complexes of Sullivan models.

Three chain complexes, all indexed by the degree shift n >= 1:

* absolute  -- derivations of the (fiber) model itself;
* relative  -- derivations of the total algebra vanishing on base generators,
               with values anywhere in the total algebra;
* ideal     -- relative derivations whose values lie in the ideal generated
               by the base generators.

A slice at shift n is spanned by pairs (w, m): the derivation sending the
generator w to the monomial m and every other generator to zero.  The
boundary is delta(s) = d.s - (-1)^n s.d, with the Koszul sign (-1)^(n|x|)
when a shift-n derivation passes a factor x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

from .algebra import AlgElement, GenSet, Generator, Monomial, apply_to_monomial, leibniz_apply
from .errors import GeneratorSetMismatch
from .linalg import HomologySlice, RatMatrix
from .model import Cochains, RelativeModel, SullivanModel

ABSOLUTE = "absolute"
RELATIVE = "relative"
IDEAL = "ideal"

ModelLike = Union[SullivanModel, RelativeModel]


@dataclass(frozen=True)
class Derivation:
    """A finitely supported derivation, homogeneous of negative degree -shift."""

    gens: GenSet  # the value algebra
    shift: int
    values: Mapping[int, AlgElement]  # generator index -> value

    def __post_init__(self):
        for i, val in self.values.items():
            want = self.gens[i].degree - self.shift
            if not val.is_homogeneous_of(want):
                raise ValueError(
                    f"value of {self.gens[i].name} must be homogeneous of degree {want}"
                )

    def __call__(self, a: AlgElement) -> AlgElement:
        return apply_derivation(self, a)


def apply_derivation(theta: Derivation, a: AlgElement) -> AlgElement:
    """Leibniz extension of the derivation to an arbitrary element."""
    if a.gens != theta.gens:
        raise GeneratorSetMismatch("element over a different generator set")
    return leibniz_apply(theta.gens, theta.values, theta.shift, a)


@dataclass(frozen=True)
class ComplexSlice:
    """Ordered basis of one degree of a derivation complex."""

    degree: int
    scope: str
    pairs: tuple[tuple[Generator, Monomial], ...]
    value_gens: GenSet
    domain_gens: GenSet

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def index(self) -> dict[tuple[int, Monomial], int]:
        return {(g.index, m): i for i, (g, m) in enumerate(self.pairs)}

    def derivation(self, i: int) -> Derivation:
        g, m = self.pairs[i]
        return Derivation(
            self.value_gens, self.degree, {g.index: AlgElement.monomial(self.value_gens, m)}
        )

    def labels(self) -> list[str]:
        return [f"({g.name}, {m.format(self.value_gens)})" for g, m in self.pairs]


class DerComplex:
    """One scope of the derivation complex of a model, for one call.

    Each slice and each boundary is built at most once, on first use, and
    lives only as long as this object: a caller that needs several of them
    builds one DerComplex and drops it when it is done.  The monomials of
    the slices come from one Cochains of the value model; two scopes over
    the same total model can share one by passing it as ``cochains``.
    """

    def __init__(self, m: ModelLike, scope: str = ABSOLUTE, cochains: Optional[Cochains] = None):
        fiber = m.fiber if isinstance(m, RelativeModel) else m
        if scope == ABSOLUTE:
            self.model, self._keep = fiber, None
        elif scope in (RELATIVE, IDEAL):
            if not isinstance(m, RelativeModel):
                raise ValueError(f"{scope} scope needs a RelativeModel")
            self.model = m.total
            self._keep = m.monomial_has_base if scope == IDEAL else None
        else:
            raise ValueError(f"unknown scope {scope!r}")
        self.source = m
        self.scope = scope
        self.domain = fiber.gens
        if cochains is None:
            cochains = Cochains(self.model)
        elif cochains.model is not self.model:
            raise ValueError("cochains of a different model")
        self.cochains = cochains
        self._slices: dict[int, ComplexSlice] = {}
        self._boundaries: dict[int, RatMatrix] = {}

    def slice(self, n: int) -> ComplexSlice:
        """All pairs (w, monomial) with |w| - |monomial| = n, filtered by scope."""
        if n in self._slices:
            return self._slices[n]
        if n < 0:
            raise ValueError("derivation degree must be nonnegative")
        gens = self.model.gens
        pairs = []
        for g in self.domain:
            w = gens.get(g.name)
            deg = w.degree - n
            if deg < 0:
                continue
            self.model.check_bound(deg)
            for mono in self.cochains.basis(deg):
                if self._keep is None or self._keep(mono):
                    pairs.append((w, mono))
        self._slices[n] = ComplexSlice(n, self.scope, tuple(pairs), gens, self.domain)
        return self._slices[n]

    def boundary(self, n: int) -> RatMatrix:
        """delta from the shift-n slice to the shift-(n-1) slice, in basis coordinates."""
        if n in self._boundaries:
            return self._boundaries[n]
        if n < 1:
            raise ValueError("boundary starts at shift 1")
        src = self.slice(n)
        tgt = self.slice(n - 1)
        model, gens = self.model, self.model.gens
        tgt_index = tgt.index()
        sign = -1 if n % 2 == 0 else 1  # -(-1)^n
        gen_diffs = [(gens.get(g.name).index, model.diff_of(g.name).terms) for g in self.domain]
        columns = []
        for w, mono in src.pairs:
            theta = {w.index: ((mono.exponents, 1),)}
            col = {}
            for gi, dg in gen_diffs:
                val = apply_to_monomial(gens, model.images, 1, mono) if gi == w.index else {}
                for term, c in dg.items():
                    for mm, v in apply_to_monomial(gens, theta, n, term).items():
                        val[mm] = val.get(mm, 0) + sign * c * v
                for mm, c in val.items():
                    if c:
                        col[tgt_index[(gi, mm)]] = c
            columns.append(col)
        self._boundaries[n] = RatMatrix(tgt.dim, columns)
        return self._boundaries[n]

    def homology(self, n: int) -> HomologySlice:
        """H_n, from the boundaries into and out of the shift-n slice."""
        return HomologySlice(self.boundary(n + 1), self.boundary(n))

    def map_to(self, other: "DerComplex", n: int) -> RatMatrix:
        """Slice n into other's slice n, each pair to the same pair or to zero.

        Between the scopes of one fibration this is the inclusion (ideal to
        relative), the restriction p_V (relative to absolute), its section
        (absolute to relative) and the projection onto the ideal pairs.
        """
        src, tgt = self.slice(n).pairs, other.slice(n).pairs
        if self.model is other.model:
            return relabel(src, tgt, lambda p: p)
        f, gens = self.source, other.model.gens
        mono = f.fiber_monomial if other.scope == ABSOLUTE else f.total_monomial
        return relabel(src, tgt, lambda p: (gens.get(p[0].name), mono(p[1])))

    def evaluation(self, n: int) -> RatMatrix:
        """Evaluation on generators: (w, 1) -> w*, every other pair -> 0.

        Rows are indexed by the dual basis of the degree-n generators of the
        domain, in declaration order.
        """
        duals = [g.name for g in self.domain if g.degree == n]
        return relabel(
            self.slice(n).pairs, duals, lambda p: p[0].name if p[1].is_unit else None
        )


def relabel(src: Sequence, tgt: Sequence, key: Callable) -> RatMatrix:
    """The 0/1 matrix sending src[j] to tgt[i] where key(src[j]) == tgt[i].

    An element whose key is not in tgt goes to zero.
    """
    index = {t: i for i, t in enumerate(tgt)}
    keys = (index.get(key(s)) for s in src)
    return RatMatrix(len(tgt), ({} if i is None else {i: 1} for i in keys))


def dual_frame(model: SullivanModel, n: int) -> tuple[str, ...]:
    """Labels of Hom(W^n, Q): one starred label per degree-n generator."""
    return tuple(f"{g.name}*" for g in model.gens if g.degree == n)

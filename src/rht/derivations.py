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
from typing import Mapping, Union

from .algebra import (
    AlgElement,
    GenSet,
    Generator,
    Monomial,
    basis_in_degree,
    leibniz_apply,
)
from .errors import GeneratorSetMismatch
from .linalg import RatMatrix
from .model import RelativeModel, SullivanModel

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


def _slice_ingredients(m: ModelLike, scope: str):
    """domain generators, value generator set, governing model, base filter."""
    if scope == ABSOLUTE:
        if isinstance(m, RelativeModel):
            model = m.fiber
        else:
            model = m
        return model.gens, model.gens, model, None
    if scope in (RELATIVE, IDEAL):
        if not isinstance(m, RelativeModel):
            raise ValueError(f"{scope} scope needs a RelativeModel")
        has_base = m.monomial_has_base if scope == IDEAL else None
        return m.fiber.gens, m.total.gens, m.total, has_base
    raise ValueError(f"unknown scope {scope!r}")


def der_basis(m: ModelLike, n: int, scope: str = ABSOLUTE) -> ComplexSlice:
    """All pairs (w, monomial) with |w| - |monomial| = n, filtered by scope."""
    if n < 0:
        raise ValueError("derivation degree must be nonnegative")
    domain, value_gens, model, base_filter = _slice_ingredients(m, scope)
    domain_in_value = (
        [value_gens.get(g.name) for g in domain] if scope != ABSOLUTE else list(domain)
    )
    pairs = []
    for g in domain_in_value:
        deg = g.degree - n
        if deg < 0:
            continue
        model.check_bound(deg)
        for mono in basis_in_degree(value_gens, deg):
            if base_filter is not None and not base_filter(mono):
                continue
            pairs.append((g, mono))
    return ComplexSlice(n, scope, tuple(pairs), value_gens, domain)


def boundary_matrix(m: ModelLike, n: int, scope: str = ABSOLUTE) -> RatMatrix:
    """delta from the shift-n slice to the shift-(n-1) slice, in basis coordinates."""
    if n < 1:
        raise ValueError("boundary starts at shift 1")
    src = der_basis(m, n, scope)
    tgt = der_basis(m, n - 1, scope)
    domain, value_gens, model, _ = _slice_ingredients(m, scope)
    tgt_index = tgt.index()
    sign = -1 if n % 2 == 0 else 1  # -(-1)^n
    entries = {}
    for j in range(src.dim):
        w, mono = src.pairs[j]
        theta = src.derivation(j)
        for g in domain:
            gv = value_gens.get(g.name)
            val = AlgElement.zero(value_gens)
            if gv.index == w.index:
                val = val + model.d(AlgElement.monomial(value_gens, mono))
            dg = model.diff_of(gv.name)
            if not dg.is_zero():
                val = val + sign * theta(dg)
            for mm, c in val.terms.items():
                entries[(tgt_index[(gv.index, mm)], j)] = c
    return RatMatrix(tgt.dim, src.dim, entries)


def restriction_matrix(f: RelativeModel, n: int) -> RatMatrix:
    """Chain map from the relative slice onto the absolute fiber slice.

    Sends (w, m) to (w, p_V(m)) where p_V kills monomials with base content.
    """
    src = der_basis(f, n, RELATIVE)
    tgt = der_basis(f, n, ABSOLUTE)
    tgt_index = tgt.index()
    entries = {}
    for j, (w, mono) in enumerate(src.pairs):
        if f.monomial_has_base(mono):
            continue
        fiber_mono = Monomial(
            tuple((i - f.base_size, e) for i, e in mono.exponents)
        )
        fiber_gen = f.fiber.gens.get(w.name)
        entries[(tgt_index[(fiber_gen.index, fiber_mono)], j)] = 1
    return RatMatrix(tgt.dim, src.dim, entries)


def augmentation_matrix(m: ModelLike, n: int) -> RatMatrix:
    """Evaluation of absolute derivations on generators: (w, 1) -> w*.

    Rows are indexed by the dual basis of the degree-n generators, in
    declaration order.
    """
    src = der_basis(m, n, ABSOLUTE)
    model = m.fiber if isinstance(m, RelativeModel) else m
    duals = [g for g in model.gens if g.degree == n]
    dual_index = {g.index: i for i, g in enumerate(duals)}
    entries = {}
    for j, (w, mono) in enumerate(src.pairs):
        if mono.is_unit and w.index in dual_index:
            entries[(dual_index[w.index], j)] = 1
    return RatMatrix(len(duals), src.dim, entries)


def inclusion_matrix(f: RelativeModel, n: int) -> RatMatrix:
    """The ideal-valued slice included into the relative slice (a 0/1 map)."""
    src = der_basis(f, n, IDEAL)
    tgt = der_basis(f, n, RELATIVE)
    tgt_index = tgt.index()
    entries = {}
    for j, (w, mono) in enumerate(src.pairs):
        entries[(tgt_index[(w.index, mono)], j)] = 1
    return RatMatrix(tgt.dim, src.dim, entries)


def dual_frame(model: SullivanModel, n: int) -> tuple[str, ...]:
    """Labels of Hom(W^n, Q): one starred label per degree-n generator."""
    return tuple(f"{g.name}*" for g in model.gens if g.degree == n)

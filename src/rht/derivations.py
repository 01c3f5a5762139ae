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
when a shift-n derivation passes a factor x; ``DerComplex.bracket`` builds
it, and the bracket with any other degree +1 derivation, the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .algebra import GenSet, _format_sum, _image, _leibniz, _Operator
from .errors import NotAComplex
from .linalg import HomologySlice, Number, RatMatrix
from .model import ModelLike, RelativeModel, SullivanModel

ABSOLUTE = "absolute"
RELATIVE = "relative"
IDEAL = "ideal"


@dataclass(frozen=True)
class ComplexSlice:
    """Ordered basis of one degree of a derivation complex, held packed.

    keys holds each pair (w, m) as (index of w in value_gens, packed m); a
    monomial is unpacked only to print it (format).
    """

    degree: int
    scope: str
    value_gens: GenSet
    domain_gens: GenSet
    keys: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return len(self.keys)

    @cached_property
    def index(self) -> dict[tuple[int, int], int]:
        """Position of each pair, keyed as in keys: (generator index, packed
        monomial); built on first use, callers must not change it."""
        return {k: i for i, k in enumerate(self.keys)}

    def format(self, vector: Mapping[int, Number]) -> str:
        """The text of a sparse vector of the slice: "(w, value)" for each
        generator w it holds, "+"-joined, in basis order."""
        gens, values = self.value_gens, {}
        for i in sorted(vector):  # the basis takes the generators w in order
            w, key = self.keys[i]
            values.setdefault(w, []).append((gens.unpack(key), vector[i]))
        return " + ".join(f"({gens[w].name}, {_format_sum(gens, t)})" for w, t in values.items())


class DerComplex:
    """One scope of the derivation complex of a model, for one call.

    Each slice, boundary and homology is built at most once, on
    first use, and lives only as long as this object: a caller that needs
    several of them builds one DerComplex and drops it when it is done.  The
    slices hold the packed degree bases (GenSet.keys) of the value model's
    GenSet, which every complex over that set shares; a key is unpacked only
    to print it (ComplexSlice.format).
    """

    def __init__(self, m: ModelLike, scope: str = ABSOLUTE):
        if scope == ABSOLUTE:
            self.model, self._keep = m.fiber, None
        elif scope in (RELATIVE, IDEAL):
            if not isinstance(m, RelativeModel):
                raise ValueError(f"{scope} scope needs a RelativeModel")
            self.model = m.total
            # the ideal pairs: a monomial holding a base generator
            self._keep = m.total.gens.mask(m.base_size) if scope == IDEAL else None
            self.relative = DerComplex(m, RELATIVE) if scope == IDEAL else None
        else:
            raise ValueError(f"unknown scope {scope!r}")
        self.source = m
        self.scope = scope
        self.domain = m.fiber.gens
        self._slices: dict[int, ComplexSlice] = {}
        self._boundaries: dict[int, RatMatrix] = {}
        self._h: dict[int, HomologySlice] = {}
        self._operators: dict = {}  # see _operator
        self._inclusions: dict[int, tuple[list, list]] = {}  # see inclusion

    def slice(self, n: int) -> ComplexSlice:
        """All pairs (w, monomial) with |w| - |monomial| = n, filtered by scope."""
        if n in self._slices:
            return self._slices[n]
        if n < 0:
            raise ValueError("derivation degree must be nonnegative")
        gens, keep, keys = self.model.gens, self._keep, []
        for g in self.domain:
            w = gens.get(g.name)
            deg = w.degree - n
            if deg < 0:
                continue
            self.model.check_bound(deg)
            keys += [(w.index, k) for k in gens.keys(deg) if keep is None or k & keep]
        self._slices[n] = ComplexSlice(n, self.scope, gens, self.domain, tuple(keys))
        return self._slices[n]

    def boundary(self, n: int) -> RatMatrix:
        """delta = [d, -] from the shift-n slice to the shift-(n-1) slice, in basis coordinates."""
        if n not in self._boundaries:
            if self.scope == IDEAL:
                self._boundaries[n] = self._cut(n, self.relative.boundary(n))
            else:
                self._boundaries[n] = self.bracket(n, self.model.images)
        return self._boundaries[n]

    def bracket(self, n: int, images: Mapping) -> RatMatrix:
        """[E, -] from the shift-n slice to the shift-(n-1) slice.

        E is a degree +1 derivation of the value algebra, given by its
        generator images in ``monomial_images`` form, which are hashable: the
        complex keeps E compiled by them.  [E, s] = E.s - (-1)^n s.E.
        The bracket is linear in E: E = d gives the boundary, and a model
        twisted by sum_s c_s theta_s has boundary delta + sum_s c_s [theta_s, -].
        The column of the pair (w, m) is E(m) at w and, at each domain
        generator v whose E(v) holds w, the image of E(v) under the pair's
        derivation; both go through the Leibniz kernel.
        """
        if n < 1:
            raise ValueError("boundary starts at shift 1")
        if self.scope == IDEAL:
            return self._cut(n, self.relative.bracket(n, images))
        src = self.slice(n)
        tgt = self.slice(n - 1)
        gens = self.model.gens
        op = self._operator(images)
        index = tgt.index
        sign = -1 if n % 2 == 0 else 1  # -(-1)^n
        gen_images = []  # (index, packed image under E, the generators in it)
        for g in self.domain:
            i = gens.get(g.name).index
            gen_images.append((i, op.terms.get(i, ()), op.holds.get(i, ())))
        columns = []
        for w, key in src.keys:
            theta, col = None, {}
            for gi, image, holds in gen_images:
                if gi == w:
                    val = {k: c for k, c in _leibniz(op.entries, key, {}).items() if c}
                elif w in holds:
                    val = {}
                else:
                    continue  # the pair's derivation kills E(gi)
                if w in holds:
                    theta = theta or (_image(gens, w, ((key, 1),), n),)
                    for term, c in image:
                        _leibniz(theta, term, val, sign * c)
                for k, c in val.items():
                    if c:
                        col[index[gi, k]] = c
            columns.append(col)
        return RatMatrix._trusted(tgt.dim, columns)

    def _cut(self, n: int, d: RatMatrix) -> RatMatrix:
        """The ideal complex's part of a relative map d from shift n to n-1:
        d's columns at the ideal pairs, rows read back through the inverse
        of the inclusion.  An entry outside the ideal raises NotAComplex."""
        back = self.inclusion(n - 1)[1]
        columns = [{back[r]: c for r, c in d.columns[j].items()} for j in self.inclusion(n)[0]]
        if any(None in col for col in columns):
            raise NotAComplex(f"a bracket on shift {n} leaves the ideal")
        return RatMatrix._trusted(self.slice(n - 1).dim, columns)

    def inclusion(self, n: int) -> tuple[list[int], list[Optional[int]]]:
        """positions(relative, n) of the ideal complex, and its inverse, built once."""
        if n not in self._inclusions:
            inc = self.positions(self.relative, n)
            self._inclusions[n] = inc, _inverse(inc, self.relative.slice(n).dim)
        return self._inclusions[n]

    def _operator(self, images: Mapping) -> _Operator:
        """E compiled once per complex and not once per shift, keyed by its
        images; the model compiles its own d."""
        if images is self.model.images:
            return self.model.operator
        key = tuple(images.items())
        if key not in self._operators:
            self._operators[key] = _Operator(self.model.gens, images, 1)
        return self._operators[key]

    def homology(self, n: int) -> HomologySlice:
        """H_n, from the boundaries into and out of the shift-n slice."""
        if n not in self._h:
            self._h[n] = HomologySlice(self.boundary(n + 1), self.boundary(n))
        return self._h[n]

    def positions(self, other: "DerComplex", n: int) -> list[Optional[int]]:
        """Where each pair of slice n lands in other's slice n: its index, or None.

        Between the scopes of one fibration this is the inclusion (ideal to
        relative), the restriction p_V (relative to absolute) and its section
        (absolute to relative); _inverse turns one into its converse.
        """
        index, src = other.slice(n).index, self.slice(n)
        if self.model is other.model:
            return [index.get(k) for k in src.keys]
        gens, to = self.model.gens, other.model.gens
        shift = len(to) - len(gens)  # the base generators lead the total set
        moved = gens.move([k for _, k in src.keys], to)  # None: a base generator, which p_V kills
        return [
            None if k is None else index.get((w + shift, k)) for (w, _), k in zip(src.keys, moved)
        ]

    def evaluation(self, n: int) -> list[Optional[int]]:
        """Evaluation on generators, as positions into dual_frame(fiber, n):
        the pair (w, 1) goes to w*, every other pair to None."""
        duals = {g.name: i for i, g in enumerate(g for g in self.domain if g.degree == n)}
        gens = self.model.gens
        return [duals[gens[w].name] if k == 0 else None for w, k in self.slice(n).keys]


def _inverse(positions: Sequence[Optional[int]], dim: int) -> list[Optional[int]]:
    """The converse of a map read as positions: for each of dim target pairs,
    the source pair that lands on it, or None."""
    back = {i: j for j, i in enumerate(positions) if i is not None}
    return [back.get(i) for i in range(dim)]


def dual_frame(model: SullivanModel, n: int) -> tuple[str, ...]:
    """Labels of Hom(W^n, Q): one starred label per degree-n generator."""
    return tuple(f"{g.name}*" for g in model.gens if g.degree == n)


def frame_degrees(model: SullivanModel, top: int) -> list[int]:
    """The degrees n <= top with a nonempty dual_frame, ascending."""
    return sorted({g.degree for g in model.gens if g.degree <= top})

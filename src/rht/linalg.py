"""Exact rational linear algebra: one sparse echelon, subspaces, homology.

Everything is over Q with fractions.Fraction; no floating point.  All
elimination goes through ``Echelon``, which keeps a fully reduced row-echelon
basis of a span.  That basis depends only on the span, so subspaces are
canonical and equality of subspaces is plain equality of the stored rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import AmbientMismatch, NotAComplex

Vector = tuple[Fraction, ...]
Sparse = dict[int, Fraction]  # column -> nonzero entry

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _sparse(values: Iterable) -> Sparse:
    return {i: Fraction(v) for i, v in enumerate(values) if v}


def _dense(v: Sparse, n: int) -> Vector:
    return tuple(v.get(i, _ZERO) for i in range(n))


def _subtract(v: Sparse, f: Fraction, row: Sparse) -> None:
    """v -= f * row in place, dropping entries that cancel."""
    for c, x in row.items():
        y = v.get(c, _ZERO) - f * x
        if y:
            v[c] = y
        else:
            del v[c]


class RatMatrix:
    """A rows x cols matrix of exact rationals, stored sparsely."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Optional[dict] = None):
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (r, c), v in entries.items():
                v = Fraction(v)
                if v:
                    if not (0 <= r < rows and 0 <= c < cols):
                        raise IndexError("entry outside matrix dimensions")
                    self.entries[(r, c)] = v

    @staticmethod
    def from_rows(data: Sequence[Sequence]) -> "RatMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        ent = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                v = Fraction(v)
                if v:
                    ent[(r, c)] = v
        return RatMatrix(rows, cols, ent)

    @staticmethod
    def zero(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix(rows, cols)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(n, n, {(i, i): Fraction(1) for i in range(n)})

    def get(self, r: int, c: int) -> Fraction:
        return self.entries.get((r, c), Fraction(0))

    def sparse_lines(self, axis: int) -> list[Sparse]:
        """The rows (axis 0) or the columns (axis 1) as sparse vectors."""
        out: list[Sparse] = [{} for _ in range(self.cols if axis else self.rows)]
        for key, v in self.entries.items():
            out[key[axis]][key[1 - axis]] = v
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, k), v in self.entries.items():
            by_row.setdefault(r, []).append((k, v))
        by_k: dict[int, list[tuple[int, Fraction]]] = {}
        for (k, c), v in other.entries.items():
            by_k.setdefault(k, []).append((c, v))
        out: dict[tuple[int, int], Fraction] = {}
        for r, terms in by_row.items():
            for k, v in terms:
                for c, w in by_k.get(k, ()):
                    key = (r, c)
                    out[key] = out.get(key, Fraction(0)) + v * w
        return RatMatrix(self.rows, other.cols, out)

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = [Fraction(0)] * self.rows
        for (r, c), a in self.entries.items():
            if v[c]:
                out[r] += a * Fraction(v[c])
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


class Echelon:
    """Fully reduced row-echelon basis of a span inside Q^n, kept sparse.

    ``rows`` maps each pivot column to its row: the row is 1 at its pivot,
    zero left of it, and zero at every other pivot.  Such a basis is unique
    for its span, whatever vectors were added and in whatever order.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, vectors: Iterable[Sparse] = ()):
        self.n = n
        self.rows: dict[int, Sparse] = {}
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sparse) -> Sparse:
        """Remainder of v modulo the span; it is zero on every pivot column."""
        v = dict(v)
        rows = self.rows
        # a row is zero on every other pivot, so one pass clears them all
        for p in [c for c in v if c in rows]:
            _subtract(v, v[p], rows[p])
        return v

    def add(self, v: Sparse) -> bool:
        """Extend the span by v; False when v already lies in it."""
        r = self.reduce(v)
        if not r:
            return False
        p = min(r)
        if r[p] != 1:
            inv = 1 / r[p]
            r = {c: x * inv for c, x in r.items()}
        for row in self.rows.values():
            f = row.get(p)
            if f:
                _subtract(row, f, r)
        self.rows[p] = r
        return True

    def kernel(self) -> list[Sparse]:
        """Basis of {x : row . x = 0 for every row}, one vector per free column."""
        free: dict[int, Sparse] = {
            f: {f: _ONE} for f in range(self.n) if f not in self.rows
        }
        for p, row in self.rows.items():
            for c, x in row.items():
                if c != p:  # any other column of a reduced row is free
                    free[c][p] = -x
        return list(free.values())

    def dense_rows(self) -> tuple[Vector, ...]:
        """The basis as dense vectors, ordered by pivot column."""
        return tuple(_dense(self.rows[p], self.n) for p in sorted(self.rows))


class Subspace:
    """A subspace of a labeled coordinate space, stored as an RREF basis."""

    __slots__ = ("ambient", "rows", "_echelon")

    def __init__(self, ambient: Sequence[str], vectors: Iterable[Sequence] = ()):
        self.ambient: tuple[str, ...] = tuple(ambient)
        self._echelon = Echelon(len(self.ambient), (self._in_frame(v) for v in vectors))
        self.rows: tuple[Vector, ...] = self._echelon.dense_rows()

    @staticmethod
    def full(ambient: Sequence[str]) -> "Subspace":
        n = len(ambient)
        return Subspace(ambient, [[1 if j == i else 0 for j in range(n)] for i in range(n)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _in_frame(self, v: Sequence) -> Sparse:
        if len(v) != len(self.ambient):
            raise AmbientMismatch("vector length does not match ambient frame")
        return _sparse(v)

    def reduce(self, v: Sequence) -> Vector:
        """Reduce a vector modulo this subspace (eliminate its pivots)."""
        return _dense(self._echelon.reduce(self._in_frame(v)), len(self.ambient))

    def contains(self, v: Sequence) -> bool:
        return not self._echelon.reduce(self._in_frame(v))

    def includes(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise AmbientMismatch(
                f"ambient frames differ: {self.ambient} vs {other.ambient}"
            )
        return not any(
            self._echelon.reduce(row) for row in other._echelon.rows.values()
        )

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def basis_labels(self) -> list[str]:
        """Labels of coordinates that head the basis rows (for display)."""
        return [self.ambient[p] for p in sorted(self._echelon.rows)]

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {len(self.ambient)})"


class HomologySlice:
    """Homology at one spot of a chain complex, with quotient coordinates.

    Built from d_in: C_{n+1} -> C_n and d_out: C_n -> C_{n-1}.  The
    representatives are the reduced echelon basis of the cycles reduced
    modulo the boundaries; their classes form a basis of ker(d_out)/im(d_in).
    """

    __slots__ = ("dim", "representatives", "_boundaries", "_reps")

    def __init__(self, d_in: RatMatrix, d_out: RatMatrix):
        if d_in.rows != d_out.cols:
            raise ValueError("chain degree mismatch between d_in and d_out")
        if not (d_out @ d_in).is_zero():
            raise NotAComplex("d_out . d_in != 0")
        n = d_in.rows
        self._boundaries = Echelon(n, d_in.sparse_lines(1))
        cycles = Echelon(n, d_out.sparse_lines(0)).kernel()
        self._reps = Echelon(n, (self._boundaries.reduce(z) for z in cycles))
        self.representatives: tuple[Vector, ...] = self._reps.dense_rows()
        self.dim = self._reps.rank

    def coords(self, cycle: Sequence) -> Vector:
        """Class of a cycle in the chosen representative basis."""
        if len(cycle) != self._boundaries.n:
            raise ValueError("vector length does not match the chain degree")
        r = self._boundaries.reduce(_sparse(cycle))
        if self._reps.reduce(r):
            raise ValueError("vector is not a cycle modulo boundaries of this slice")
        # the representatives are 1 at their own pivot and 0 at the others
        return tuple(r.get(p, _ZERO) for p in sorted(self._reps.rows))

"""Exact rational linear algebra: one sparse echelon, subspaces, homology.

Everything is over Q with fractions.Fraction; no floating point.  All
elimination goes through ``Echelon``, which keeps a fully reduced row-echelon
basis of a span.  That basis depends only on the span, so subspaces are
canonical and equality of subspaces is plain equality of the stored rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import AmbientMismatch, NotAComplex

Vector = tuple[Fraction, ...]
Sparse = dict[int, Fraction]  # column -> nonzero entry

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    """A rows x cols matrix of exact rationals, stored as sparse columns."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, columns: Iterable[Mapping[int, object]]):
        self.rows = rows
        self.columns: list[Sparse] = []
        for column in columns:
            col = {r: Fraction(v) for r, v in column.items() if v}
            if col and not (0 <= min(col) and max(col) < rows):
                raise IndexError("entry outside matrix dimensions")
            self.columns.append(col)
        self.cols = len(self.columns)

    @staticmethod
    def from_rows(data: Sequence[Sequence]) -> "RatMatrix":
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return RatMatrix(len(data), ({r: row[c] for r, row in enumerate(data)} for c in range(cols)))

    def row_lines(self) -> list[Sparse]:
        """The rows as sparse vectors."""
        out: list[Sparse] = [{} for _ in range(self.rows)]
        for c, col in enumerate(self.columns):
            for r, v in col.items():
                out[r][c] = v
        return out

    def is_zero(self) -> bool:
        return not any(self.columns)

    def apply(self, v: Mapping[int, Fraction]) -> Sparse:
        """The product with a sparse column vector, as a sparse vector."""
        out: Sparse = {}
        for c, x in v.items():
            if not 0 <= c < self.cols:
                raise ValueError("vector index outside the matrix columns")
            for r, a in self.columns[c].items():
                out[r] = out.get(r, _ZERO) + a * x
        return {r: y for r, y in out.items() if y}

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        return RatMatrix(self.rows, map(self.apply, other.columns))

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.rows == other.rows and self.columns == other.columns

    def __repr__(self):
        nnz = sum(map(len, self.columns))
        return f"RatMatrix({self.rows}x{self.cols}, {nnz} entries)"


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
        # int input is scaled too, so every stored entry is an exact Fraction
        if r[p] != 1 or not all(type(x) is Fraction for x in r.values()):
            inv = _ONE / r[p]
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
        return {i: Fraction(x) for i, x in enumerate(v) if x}

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

    Built from d_in: C_{n+1} -> C_n and d_out: C_n -> C_{n-1}.  Its
    dimension is dim C_n - rk d_out - rk d_in.  The representatives are built
    on first use: the reduced echelon basis of the cycles reduced modulo the
    boundaries, as sparse vectors in pivot order.  Their classes form a basis
    of ker(d_out)/im(d_in).
    """

    __slots__ = ("dim", "_boundaries", "_rows_out", "_reps")

    def __init__(self, d_in: RatMatrix, d_out: RatMatrix):
        if d_in.rows != d_out.cols:
            raise ValueError("chain degree mismatch between d_in and d_out")
        # the rank formula below needs im(d_in) inside ker(d_out)
        if not (d_out @ d_in).is_zero():
            raise NotAComplex("d_out . d_in != 0")
        n = d_in.rows
        self._boundaries = Echelon(n, d_in.columns)
        self._rows_out = Echelon(n, d_out.row_lines())
        self.dim = n - self._rows_out.rank - self._boundaries.rank
        self._reps: Optional[Echelon] = None

    def _representatives(self) -> Echelon:
        if self._reps is None:
            cycles = self._rows_out.kernel()
            self._reps = Echelon(self._boundaries.n, map(self._boundaries.reduce, cycles))
        return self._reps

    @property
    def representatives(self) -> list[Sparse]:
        """A representative cycle of each basis class, in pivot order."""
        rows = self._representatives().rows
        return [rows[p] for p in sorted(rows)]

    def coords(self, cycle: Mapping[int, Fraction]) -> Sparse:
        """Class of a cycle in the representative basis, keyed by index."""
        if any(not 0 <= c < self._boundaries.n for c in cycle):
            raise ValueError("vector index outside the chain degree")
        reps = self._representatives()
        r = self._boundaries.reduce(cycle)
        if reps.reduce(r):
            raise ValueError("vector is not a cycle modulo boundaries of this slice")
        # the representatives are 1 at their own pivot and 0 at the others
        return {i: r[p] for i, p in enumerate(sorted(reps.rows)) if p in r}

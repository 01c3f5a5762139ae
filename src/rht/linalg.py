"""Exact rational linear algebra: one sparse echelon, subspaces, homology.

Everything is over Q and exact; no floating point.  An entry is an int or a
fractions.Fraction.  It stays an int until it meets a Fraction: one given as
input, or the inverse of a pivot other than 1 and -1, the only division here.
Other rationals are converted to Fraction as they come in, and inexact
numbers are refused.  All elimination goes through ``Echelon``, which keeps a
row-echelon basis of a span: plain echelon on add, reduced on first read.
The reduced basis depends only on the span, so subspaces are canonical and
equality of subspaces is plain equality of the rows (an integral Fraction
equals and hashes like its int).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from numbers import Rational
from typing import Optional, Union

from .errors import AmbientMismatch, NotAComplex

Number = Union[int, Fraction]
Vector = tuple[Number, ...]
Sparse = dict[int, Number]  # column -> nonzero entry

_EXACT = frozenset((int, Fraction))
_INDEX = frozenset((int,))  # the one type of an index: a bool or a float is none
_ONE = Fraction(1)


def _exact_sparse(items: Iterable[tuple[int, object]]) -> Sparse:
    """The nonzero entries of (index, value) pairs.  int and Fraction values
    are kept as they are, other rationals become Fractions, and anything
    inexact (float, Decimal, str) raises TypeError."""
    out: Sparse = {}
    for i, v in items:
        if type(v) not in _EXACT:
            if not isinstance(v, Rational):
                raise TypeError(f"entries must be exact rationals, got {type(v).__name__} {v!r}")
            v = Fraction(v)
        if v:
            out[i] = v
    return out


def _subtract(v: Sparse, f: Number, row: Sparse) -> None:
    """v -= f * row in place, dropping entries that cancel."""
    for c, x in row.items():
        y = v.get(c, 0) - f * x
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
            col = _exact_sparse(column.items())
            if col and not (0 <= min(col) and max(col) < rows and _INDEX.issuperset(map(type, col))):
                raise IndexError("entry outside matrix dimensions")
            self.columns.append(col)
        self.cols = len(self.columns)

    @classmethod
    def _trusted(cls, rows: int, columns: list[Sparse]) -> "RatMatrix":
        """A matrix that keeps the given columns as they are, with no copy and
        no check: only for columns whose entries are exact, nonzero and in
        0..rows-1 by construction."""
        m = cls.__new__(cls)
        m.rows, m.columns, m.cols = rows, columns, len(columns)
        return m

    def row_lines(self) -> list[Sparse]:
        """The rows as sparse vectors."""
        out: list[Sparse] = [{} for _ in range(self.rows)]
        for c, col in enumerate(self.columns):
            for r, v in col.items():
                out[r][c] = v
        return out

    def is_zero(self) -> bool:
        return not any(self.columns)

    def apply(self, v: Mapping[int, Number]) -> Sparse:
        """The product with a sparse column vector, as a sparse vector."""
        out: Sparse = {}
        for c, x in v.items():
            if not 0 <= c < self.cols:
                raise ValueError("vector index outside the matrix columns")
            for r, a in self.columns[c].items():
                out[r] = out.get(r, 0) + a * x
        return {r: y for r, y in out.items() if y}

    def __repr__(self):
        nnz = sum(map(len, self.columns))
        return f"RatMatrix({self.rows}x{self.cols}, {nnz} entries)"


class Echelon:
    """Row-echelon basis of a span inside Q^n, kept sparse: plain echelon on
    add, reduced on first read.

    ``add`` stores each new row scaled to 1 at its pivot and zero left of it,
    and nothing more.  ``rows`` back-substitutes the stored rows once, on its
    first read after an add whose pivot lies right of an older one, into the
    fully reduced basis: each row is also zero at every other pivot.  That
    basis is unique for its span, whatever vectors were added and in
    whatever order.  ``rank`` reads no row.  Vectors are sparse; an explicit
    zero entry is dropped, a stored row with an inexact entry raises
    TypeError, and one with an index other than an int in 0..n-1 IndexError.
    """

    __slots__ = ("n", "_rows", "_clean")

    def __init__(self, n: int, vectors: Iterable[Sparse] = ()):
        self.n = n
        self._rows: dict[int, Sparse] = {}
        self._clean = True
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> dict[int, Sparse]:
        """The fully reduced basis: each pivot column mapped to its row."""
        rows = self._rows
        if not self._clean:
            # from the highest pivot down, every row to the right is already
            # zero at the other pivots, so one pass clears this row's
            for p in sorted(rows, reverse=True):
                row = rows[p]
                for q in [c for c in row if c != p and c in rows]:
                    _subtract(row, row[q], rows[q])
            self._clean = True
        return rows

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
        v = dict(v)
        rows = self._rows
        # a stored row may be nonzero at a larger pivot, so the pivots are
        # cleared in ascending order and each one a subtraction brings in is
        # queued
        heap = [c for c in v if c in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            f = v.get(p)
            if not f:
                continue
            for c, x in rows[p].items():
                y = v.get(c, 0) - f * x
                if y:
                    if c not in v and c in rows:
                        heappush(heap, c)
                    v[c] = y
                else:
                    del v[c]
        if v and not (all(v.values()) and _EXACT.issuperset(map(type, v.values()))):
            # checked once per vector that survives elimination: an explicit
            # zero is dropped before the pivot is picked, an inexact entry
            # raises
            v = _exact_sparse(v.items())
        if not v:
            return False
        p = min(v)
        if p < 0 or max(v) >= self.n or not _INDEX.issuperset(map(type, v)):
            # checked once per stored row: elimination never clears a column no row holds
            raise IndexError(f"entry outside the {self.n} columns")
        pivot = v[p]
        if pivot != 1:
            # scaling by -1 keeps an int row int; any other pivot is inverted as a Fraction
            scale = -1 if pivot == -1 else _ONE / pivot
            v = {c: x * scale for c, x in v.items()}
        if self._clean and rows and min(rows) < p:
            # an older row with a smaller pivot may hold column p; one with a
            # larger pivot is zero there, and v is zero at every other pivot
            self._clean = False
        rows[p] = v
        return True

    def kernel(self) -> list[Sparse]:
        """Basis of {x : row . x = 0 for every row}, one vector per free column."""
        free: dict[int, Sparse] = {
            f: {f: 1} for f in range(self.n) if f not in self.rows
        }
        for p, row in self.rows.items():
            for c, x in row.items():
                if c != p:  # any other column of a reduced row is free
                    free[c][p] = -x
        return list(free.values())


class Subspace:
    """A subspace of a labeled coordinate space, spanned by sparse vectors
    {index: value}; ``rows``, its RREF basis as dense vectors, is its key."""

    __slots__ = ("ambient", "rows", "_echelon", "_hash")

    def __init__(self, ambient: Sequence[str], vectors: Iterable[Mapping[int, object]] = ()):
        self.ambient: tuple[str, ...] = tuple(ambient)
        self._keep(Echelon(len(self.ambient), filter(None, map(self._in_frame, vectors))))

    @classmethod
    def _reduced(cls, ambient: Sequence[str], rows: dict[int, Sparse]) -> "Subspace":
        """The subspace whose reduced basis is rows, keyed by pivot, kept with no
        copy and no elimination: only for rows that are that basis by construction."""
        s = cls.__new__(cls)
        s.ambient, echelon = tuple(ambient), Echelon(len(ambient))
        echelon._rows = rows
        s._keep(echelon)
        return s

    def _keep(self, echelon: Echelon) -> None:
        self._echelon, n, rows = echelon, echelon.n, echelon.rows
        self.rows: tuple[Vector, ...] = tuple(tuple(rows[p].get(i, 0) for i in range(n)) for p in sorted(rows))
        self._hash = hash((self.ambient, self.rows))  # kept: a catalog hashes each image per entry

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _in_frame(self, v: Mapping[int, object]) -> Sparse:
        if not isinstance(v, Mapping):
            raise TypeError(f"a vector must be a mapping {{index: value}}, got {type(v).__name__}")
        if not _INDEX.issuperset(map(type, v)) or any(not 0 <= i < len(self.ambient) for i in v):
            raise AmbientMismatch("vector index outside the ambient frame")
        return _exact_sparse(v.items())

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
        return self._hash

    def basis_labels(self) -> list[str]:
        """Labels of coordinates that head the basis rows (for display)."""
        return [self.ambient[p] for p in sorted(self._echelon.rows)]

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {len(self.ambient)})"


class HomologySlice:
    """Homology at one spot of a chain complex.

    Built from d_in: C_{n+1} -> C_n and d_out: C_n -> C_{n-1}.  Its
    dimension is dim C_n - rk d_out - rk d_in.  The cycles and the
    representatives are built on first use.  The representatives are the
    reduced echelon basis of the cycles reduced modulo the boundaries, as
    sparse vectors in pivot order; their classes form a basis of
    ker(d_out)/im(d_in).
    """

    __slots__ = ("dim", "_d_out", "_boundaries", "_rows_out", "_cycles", "_reps")

    def __init__(self, d_in: RatMatrix, d_out: RatMatrix):
        if d_in.rows != d_out.cols:
            raise ValueError("chain degree mismatch between d_in and d_out")
        columns = list(filter(None, d_in.columns))  # a zero vector is no work to eliminate
        # the rank formula below needs im(d_in) inside ker(d_out)
        if any(map(d_out.apply, columns)):
            raise NotAComplex("d_out . d_in != 0")
        n = d_in.rows
        self._d_out = d_out
        self._boundaries = Echelon(n, columns)
        self._rows_out = Echelon(n, filter(None, d_out.row_lines()))
        self.dim = n - self._rows_out.rank - self._boundaries.rank
        self._cycles: Optional[list[Sparse]] = None
        self._reps: Optional[Echelon] = None

    @property
    def cycles(self) -> list[Sparse]:
        """A basis of ker(d_out), one vector per free column of its row echelon."""
        if self._cycles is None:
            self._cycles = self._rows_out.kernel()
        return self._cycles

    @property
    def representatives(self) -> list[Sparse]:
        """A representative cycle of each basis class, in pivot order."""
        if self._reps is None:
            # a kernel built here is not kept: only cycles keeps one
            reduced = map(self._boundaries.reduce, self._cycles or self._rows_out.kernel())
            self._reps = Echelon(self._boundaries.n, filter(None, reduced))
        rows = self._reps.rows
        return [rows[p] for p in sorted(rows)]

    def classes(self, vectors: Iterable[Mapping[int, Number]], where: str) -> Echelon:
        """The echelon of the vectors' remainders modulo the boundaries: its
        rank is the dimension of the span of their classes.  A vector that is
        not a cycle raises NotAComplex, which names where it was sent; a zero
        vector is skipped."""
        out, rows = Echelon(self._boundaries.n), self._boundaries.rows
        for v in filter(None, vectors):  # a zero vector is a cycle with a zero class
            if self._d_out.apply(v):
                raise NotAComplex(f"a vector sent to {where} is not a cycle")
            r = dict(v)
            for p in [c for c in r if c in rows]:  # as Echelon.reduce, with rows read once
                _subtract(r, r[p], rows[p])
            if r:
                out.add(r)
        return out

    def touches(self, columns: Iterable[int]) -> bool:
        """Whether some representative is nonzero in one of the columns.

        Read from the two echelons, with no kernel and no representative.
        The representatives span the cycles lying in W, the coordinates off
        the boundary pivots (reducing by the boundaries B projects onto W
        along B).  The functionals that vanish on that span are the rows of
        d_out plus the e_p of the boundary pivots p, a direct sum since a row
        of d_out kills B while e_p is 1 on the boundary row B_p and 0 on the
        others.  So column j is nonzero on the span exactly when
        e_j - sum_p B_p[j] e_p lies outside the row space of d_out.
        """
        bounds = self._boundaries.rows
        phis = {j: {j: 1} for j in columns if j not in bounds}  # a pivot column is 0 on W
        for p, row in bounds.items():  # column j of B, read in one pass
            for j in phis.keys() & row.keys():
                phis[j][p] = -row[j]
        return any(map(self._rows_out.reduce, phis.values()))

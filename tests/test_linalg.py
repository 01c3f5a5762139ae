"""Exact rational linear algebra: the echelon kernel, subspaces, homology."""

import random
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rht import (
    Echelon,
    HomologySlice,
    RatMatrix,
    RelativeModel,
    Subspace,
    cohomology,
    connecting_images,
    fibre_gottlieb,
    gottlieb,
    les_check,
    toral_certificate,
)
from rht.errors import AmbientMismatch, NotAComplex
from rht.invariants import top_shift

from conftest import FIXTURES, load, random_fibration, random_space

integers = st.integers(-4, 4)
# ints and Fractions mixed, so elimination meets non-unit and fractional pivots
entries = st.one_of(integers, st.fractions(-4, 4, max_denominator=3))


def exact(values):
    """True when every value is an int or a Fraction: never a float."""
    return all(type(x) in (int, Fraction) for x in values)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return from_rows(data)


def from_rows(data):
    """The matrix of dense rows, built from its columns."""
    columns = range(len(data[0]))
    return RatMatrix(len(data), [{r: row[c] for r, row in enumerate(data)} for c in columns])


def dense(v, n):
    return tuple(v.get(i, 0) for i in range(n))


def sparse(row):
    return {i: x for i, x in enumerate(row) if x}


def row_echelon(m):
    return Echelon(m.cols, m.row_lines())


def apply_dense(m, x):
    """M x for a dense vector x, as a dense vector."""
    return dense(m.apply(sparse(x)), m.rows)


# ----------------------------------------------------------------------
# matrices and the echelon


def test_matrix_basics():
    m = from_rows([[1, 2], [3, 4]])
    assert m.columns[0] == {0: 1, 1: 3}
    assert m.apply({0: 1, 1: 1}) == {0: Fraction(3), 1: Fraction(7)}
    assert RatMatrix(2, [{}, {}]).is_zero()
    assert RatMatrix(2, [{}, {}, {}]).row_lines() == [{}, {}]
    # entries are exact and nonzero, and must lie inside the matrix
    assert RatMatrix(2, [{0: 1, 1: 0}]).columns == [{0: Fraction(1)}]
    assert all(exact(col.values()) for col in RatMatrix(1, [{0: 1}, {0: Fraction(1, 2)}]).columns)
    with pytest.raises(IndexError):
        RatMatrix(2, [{2: 1}])
    with pytest.raises(ValueError):
        m.apply({2: 1})


def test_matrix_stores_fraction_entries():
    half, kept = Fraction(1, 2), Fraction(2, 3)
    # int, Fraction and mixed columns: every entry is stored as it is given,
    # an int or a Fraction, and equals the all-Fraction matrix
    for columns in ([{0: 1, 1: -2}], [{0: half}, {1: kept}], [{0: 3, 1: half}, {1: Fraction(4)}, {}]):
        m = RatMatrix(2, columns)
        assert all(exact(col.values()) for col in m.columns)
        assert [list(map(type, col.values())) for col in m.columns] == [
            list(map(type, col.values())) for col in columns
        ]
        assert m.columns == [{r: Fraction(x) for r, x in col.items()} for col in columns]
    # a Fraction entry is stored as it is, not copied
    assert RatMatrix(1, [{0: kept}]).columns[0][0] is kept
    for column in ({2: kept}, {-1: 1}, {0: 1, 5: half}):
        with pytest.raises(IndexError):
            RatMatrix(2, [column])


@pytest.mark.parametrize("value", [0.5, 0.0, "1", Decimal("0.1")])
def test_inexact_entries_are_refused(value):
    # Fraction(0.1) would store 3602879701896397/36028797018963968; a zero
    # float is refused too, not dropped as a zero entry
    with pytest.raises(TypeError):
        RatMatrix(1, [{0: value}])
    with pytest.raises(TypeError):
        Subspace(("x", "y"), [[1, value]])


def test_other_rationals_become_fractions():
    # bool is a numbers.Rational, but by type neither int nor Fraction
    assert [type(x) for x in RatMatrix(1, [{0: True}]).columns[0].values()] == [Fraction]
    assert Subspace(("x", "y"), [[True, 0]]) == Subspace(("x", "y"), [[1, 0]])


@given(matrices())
@settings(max_examples=100)
def test_rref_idempotent_and_pivots(m):
    e = row_echelon(m)
    again = Echelon(m.cols, e.rows.values())
    assert again.dense_rows() == e.dense_rows() and again.rank == e.rank
    for p, row in e.rows.items():
        assert row[p] == 1 and min(row) == p
        assert all(p not in other for q, other in e.rows.items() if q != p)


@given(matrices())
@settings(max_examples=100)
def test_rank_nullity(m):
    rank = row_echelon(m).rank
    assert len(row_echelon(m).kernel()) == m.cols - rank
    # the column space has the same rank
    assert Echelon(m.rows, m.columns).rank == rank


@given(matrices())
@settings(max_examples=100)
def test_kernel_vectors_annihilated(m):
    for v in row_echelon(m).kernel():
        assert all(x == 0 for x in apply_dense(m, dense(v, m.cols)))


@given(matrices(), st.data())
@settings(max_examples=100)
def test_solve_consistency(m, data):
    # M x lies in the column space, so the column echelon reduces it to 0
    x = data.draw(
        st.lists(entries, min_size=m.cols, max_size=m.cols)
    )
    b = sparse(apply_dense(m, x))
    columns = Echelon(m.rows, m.columns)
    assert columns.reduce(b) == {}
    assert not columns.add(b)


def test_solve_inconsistent():
    m = from_rows([[1, 0], [1, 0]])
    columns = Echelon(m.rows, m.columns)
    assert columns.reduce({0: 1, 1: 2}) == {1: 1}


@given(st.lists(st.dictionaries(st.integers(0, 4), integers.filter(bool)), max_size=5))
@example([{0: 2, 1: 1}])  # its row once read {0: 1.0, 1: 0.5}
@example([{0: 1, 1: 1}, {0: 1, 1: 2, 2: 3}])  # its second row reduces to {1: 1, 2: 3}, pivot 1
@settings(max_examples=100)
def test_echelon_is_exact_on_integer_input(vectors):
    # int entries must not turn into floats: 0.5 even compares equal to
    # Fraction(1, 2), so check the types themselves; an int stays an int
    # until a pivot other than 1 and -1 is inverted
    e = Echelon(5, vectors)
    fractions = Echelon(5, [{c: Fraction(x) for c, x in v.items()} for v in vectors])
    assert all(exact(row.values()) for row in e.rows.values())
    assert all(exact(v.values()) for v in e.kernel())
    assert e.rows == fractions.rows and e.kernel() == fractions.kernel()


# ----------------------------------------------------------------------
# subspaces


FRAME = ("x0", "x1", "x2", "x3")


@st.composite
def subspaces(draw):
    count = draw(st.integers(0, 3))
    vecs = draw(
        st.lists(
            st.lists(entries, min_size=4, max_size=4), min_size=count, max_size=count
        )
    )
    return Subspace(FRAME, vecs)


def test_subspace_canonical_equality():
    a = Subspace(FRAME, [[1, 1, 0, 0], [0, 2, 0, 0]])
    b = Subspace(FRAME, [[0, 1, 0, 0], [3, 0, 0, 0]])
    assert a == b and hash(a) == hash(b)
    assert a.basis_labels() == ["x0", "x1"]


def test_subspace_membership():
    s = Subspace(FRAME, [[1, 0, 1, 0]])
    assert s.includes(Subspace(FRAME, [[2, 0, 2, 0]]))
    assert not s.includes(Subspace(FRAME, [[1, 0, 0, 0]]))
    full = Subspace(FRAME, [[int(i == j) for j in range(4)] for i in range(4)])
    assert full.includes(s)
    assert not s.includes(full)


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        Subspace(FRAME, [[1, 0]])
    with pytest.raises(AmbientMismatch):
        Subspace(FRAME).includes(Subspace(("y0",)))


@given(subspaces(), subspaces())
@settings(max_examples=100)
def test_sum_and_intersection_dimensions(u, v):
    s = Subspace(FRAME, u.rows + v.rows)
    # U cap V is the annihilator of ker U + ker V, for the standard form on Q^4
    ker_u = Echelon(4, map(sparse, u.rows)).kernel()
    ker_v = Echelon(4, map(sparse, v.rows)).kernel()
    i = Subspace(FRAME, [dense(w, 4) for w in Echelon(4, ker_u + ker_v).kernel()])
    assert s.includes(u) and s.includes(v)
    assert u.includes(i) and v.includes(i)
    assert s.dim + i.dim == u.dim + v.dim


# ----------------------------------------------------------------------
# homology


def test_homology_rejects_non_complex():
    d_in = from_rows([[1], [0]])
    d_out = from_rows([[1, 0]])
    with pytest.raises(NotAComplex):
        HomologySlice(d_in, d_out)


def test_homology_of_exact_and_trivial():
    # 0 -> Q -> Q -> 0 with the identity in the middle is exact
    ident = from_rows([[1]])
    zero_out = RatMatrix(0, [{}])
    zero_in = RatMatrix(1, [])
    assert HomologySlice(ident, zero_out).dim == 0
    assert HomologySlice(zero_in, zero_out).dim == 1


def test_homology_coords():
    # complex Q^2 --0--> Q^2 --0--> Q^2 with one boundary direction
    d_in = from_rows([[1, 0], [0, 0]])
    d_out = RatMatrix(2, [{}, {}])
    h = HomologySlice(d_in, d_out)
    assert h.dim == 1
    assert h.coords({0: 5, 1: 7}) == {0: 7}
    assert h.coords({0: 3}) == {}
    with pytest.raises(ValueError):
        h.coords({2: 1})  # outside the chain degree
    with pytest.raises(ValueError):
        HomologySlice(RatMatrix(2, []), from_rows([[1, 0], [0, 1]])).coords({0: 1})
    with pytest.raises(ValueError):
        HomologySlice(RatMatrix(3, []), d_out)  # degree mismatch


def test_homology_euler_characteristic():
    # for any two-step complex, dim H = dim ker - rank d_in
    d_in = from_rows([[1, 2, 3], [2, 4, 6]])
    d_out = RatMatrix(1, [{}, {}])
    h = HomologySlice(d_in, d_out)
    assert h.dim == len(row_echelon(d_out).kernel()) - Echelon(2, d_in.columns).rank
    for rep in h.representatives:
        assert d_out.apply(rep) == {}


# ----------------------------------------------------------------------
# a dense-Fraction RREF oracle, independent of the sparse echelon


def oracle_rref(data, n):
    """Reduced row echelon form of dense rows of length n, zero rows dropped."""
    data = [[Fraction(v) for v in row] for row in data]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(data)) if data[i][c]), None)
        if pivot is None:
            continue
        data[r], data[pivot] = data[pivot], data[r]
        data[r] = [v / data[r][c] for v in data[r]]
        for i in range(len(data)):
            if i != r and data[i][c]:
                f = data[i][c]
                data[i] = [a - f * b for a, b in zip(data[i], data[r])]
        r += 1
    return [tuple(row) for row in data[:r]]


def oracle_kernel(data, n):
    """Null space basis of dense rows, one vector per free column."""
    rows = oracle_rref(data, n)
    pivots = [next(c for c in range(n) if row[c]) for row in rows]
    out = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        out.append(v)
    return out


def oracle_homology(d_in_cols, d_out_rows, n):
    """Dimension and RREF representatives of ker(d_out) reduced mod im(d_in)."""
    boundaries = oracle_rref(d_in_cols, n)
    reduced = []
    for z in oracle_kernel(d_out_rows, n):
        for row in boundaries:
            p = next(c for c in range(n) if row[c])
            z = [a - z[p] * b for a, b in zip(z, row)]
        reduced.append(z)
    reps = oracle_rref(reduced, n)
    return len(reps), reps


@st.composite
def complexes(draw, max_dim=5):
    """d_in: Q^k -> Q^n and d_out: Q^n -> Q^m with d_out . d_in = 0."""
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(0, max_dim))
    k = draw(st.integers(0, max_dim))
    vec = st.lists(entries, min_size=n, max_size=n)
    d_out_rows = draw(st.lists(vec, min_size=m, max_size=m))
    cycles = oracle_kernel(d_out_rows, n)
    d_in_cols = []
    for _ in range(k):
        coeffs = draw(st.lists(entries, min_size=len(cycles), max_size=len(cycles)))
        d_in_cols.append(
            [sum((c * z[i] for c, z in zip(coeffs, cycles)), Fraction(0)) for i in range(n)]
        )
    d_out = RatMatrix(m, [{r: row[c] for r, row in enumerate(d_out_rows)} for c in range(n)])
    d_in = RatMatrix(n, [sparse(col) for col in d_in_cols])
    return d_in, d_out, d_in_cols, d_out_rows


@given(matrices(), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_echelon_matches_dense_oracle(m, rnd):
    rows = m.row_lines()
    e = Echelon(m.cols, rows)
    dense_rows = [dense(r, m.cols) for r in rows]
    oracle = oracle_rref(dense_rows, m.cols)
    assert e.dense_rows() == tuple(oracle)
    assert e.rank == len(oracle)
    assert len(e.kernel()) == len(oracle_kernel(dense_rows, m.cols)) == m.cols - e.rank
    # the rows depend only on the span, not on the order of insertion
    rnd.shuffle(rows)
    assert Echelon(m.cols, rows).dense_rows() == e.dense_rows()


@given(complexes())
@settings(max_examples=150)
def test_homology_slice_matches_dense_oracle(cx):
    d_in, d_out, d_in_cols, d_out_rows = cx
    h = HomologySlice(d_in, d_out)
    dim, reps = oracle_homology(d_in_cols, d_out_rows, d_in.rows)
    assert h.dim == dim
    assert tuple(dense(rep, d_in.rows) for rep in h.representatives) == tuple(reps)


def oracle_remainder(v, oracle, n):
    """v reduced modulo the span of fully reduced dense rows."""
    z = [Fraction(x) for x in dense(v, n)]
    for row in oracle:
        p = next(c for c in range(n) if row[c])
        z = [a - z[p] * b for a, b in zip(z, row)]
    return tuple(z)


@st.composite
def echelon_scripts(draw):
    """A dimension n and a list of (operation, vector) steps; reads ignore the vector."""
    n = draw(st.integers(1, 6))
    vector = st.dictionaries(st.integers(0, n - 1), entries.filter(bool))
    operation = st.sampled_from(["add", "reduce", "rows", "rank", "kernel"])
    return n, draw(st.lists(st.tuples(operation, vector), max_size=16))


@given(echelon_scripts())
# the older row {0: 1, 1: 1} holds the new pivot 1, and no larger pivot exists
@example((2, [("add", {0: 1, 1: 1}), ("rows", {}), ("add", {1: 1}), ("rows", {})]))
@settings(max_examples=200)
def test_echelon_interleaved_reads_match_fresh_oracle(script):
    # adds and reads in any order: every read must see the fully reduced
    # basis of everything added so far, however many adds came since the last
    n, steps = script
    e = Echelon(n)
    added = []
    for op, v in steps:
        oracle = oracle_rref(added, n)
        if op == "add":
            assert e.add(v) == (len(oracle_rref(added + [dense(v, n)], n)) > len(oracle))
            added.append(dense(v, n))
        elif op == "reduce":
            assert dense(e.reduce(v), n) == oracle_remainder(v, oracle, n)
        elif op == "rows":
            assert sorted(e.rows) == [next(c for c in range(n) if row[c]) for row in oracle]
            assert tuple(dense(e.rows[p], n) for p in sorted(e.rows)) == tuple(oracle)
            assert all(exact(row.values()) for row in e.rows.values())
        elif op == "rank":
            assert e.rank == len(oracle)
        else:
            assert [dense(k, n) for k in e.kernel()] == [tuple(k) for k in oracle_kernel(added, n)]


@pytest.mark.parametrize(
    "vectors", [[{0: 2.0, 1: 1.0}], [{0: 1, 1: 1}, {0: 1, 1: 0.5}], [{0: 1, 1: "1"}], [{0: Decimal(2)}]]
)
def test_echelon_refuses_inexact_entries(vectors):
    # an inexact entry that reaches a stored row is refused, as RatMatrix and
    # Subspace refuse it; the first once read {0: {0: 1.0, 1: 0.5}}
    with pytest.raises(TypeError):
        Echelon(2, vectors)


def test_echelon_checks_entries_where_a_row_is_stored():
    # a vector that elimination clears entirely stores nothing and is not
    # refused; any other rational in a stored row becomes a Fraction
    e = Echelon(2, [{0: 1, 1: 1}])
    assert not e.add({0: 1.0, 1: 1.0})
    assert e.rows == {0: {0: 1, 1: 1}}
    assert [type(x) for x in Echelon(1, [{0: True}]).rows[0].values()] == [Fraction]


def test_echelon_drops_explicit_zero_entries():
    # a zero entry is no pivot: RatMatrix and Subspace drop it too
    e = Echelon(2, [{0: 0, 1: 1}])
    assert (e.rank, e.rows) == (1, {1: {1: 1}})
    e = Echelon(1, [{0: 0}])
    assert (e.rank, e.rows) == (0, {})
    assert Echelon(2, [{0: Fraction(0), 1: 2}]).rows == {1: {1: 1}}
    # a zero left by a pivot that elimination skips is dropped as well
    e = Echelon(3, [{0: 1, 2: 1}])
    assert e.add({0: 0, 1: 3}) and e.rows == {0: {0: 1, 2: 1}, 1: {1: 1}}
    with pytest.raises(TypeError):
        Echelon(1, [{0: 0.0}])


# ----------------------------------------------------------------------
# columns kept as given


def test_kept_columns_are_what_the_checking_constructor_stores(monkeypatch):
    # RatMatrix._trusted keeps its columns with no copy and no check; each
    # caller must hand it exact, nonzero entries inside the matrix, so every
    # matrix it builds equals the public constructor's copy of its columns
    built = []
    real = RatMatrix._trusted.__func__

    def recording(cls, rows, columns):
        m = real(cls, rows, columns)
        built.append((sys._getframe(1).f_code.co_name, m))
        return m

    monkeypatch.setattr(RatMatrix, "_trusted", classmethod(recording))
    rng = random.Random(11)
    fixtures = [p.name for p in sorted(FIXTURES.glob("*.smf")) if p.name != "bad-degree.smf"]
    models = [m for name in fixtures for m in load(name)]
    models += [random_space(rng, 5) for _ in range(15)]
    models += [random_fibration(rng, 5) for _ in range(15)]
    for m in models:
        cohomology(m, min(12, m.total.bound or 12))
        gottlieb(m)
        if isinstance(m, RelativeModel):
            fibre_gottlieb(m)
            connecting_images(m)
            les_check(m, range(1, top_shift(m) + 1))
            if all(g.degree == 2 for g in m.base.gens):
                toral_certificate(m, 4)
    callers = Counter(name for name, _ in built)
    # _cut: the ideal complex's boundaries, read off the relative ones
    assert set(callers) == {"d", "bracket", "_cut", "_induced"}, callers
    for name, m in built:
        assert m.cols == len(m.columns), name
        copy = RatMatrix(m.rows, m.columns)
        assert (m.rows, m.columns) == (copy.rows, copy.columns), name
        assert all(exact(col.values()) for col in m.columns), name

"""Elimination over the rationals, cross-checked against sympy."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conedef.linalg import RationalMatrix, hstack, vstack

from oracles import sympy_pivot_columns, sympy_rank, sympy_rref


def M(rows, ncols=None):
    return RationalMatrix.from_rows(rows, ncols=ncols)


def dense(m):
    return [[m.entry(i, j) for j in range(m.ncols)] for i in range(m.nrows)]


def test_rank_of_identity():
    assert RationalMatrix.identity(4).rank() == 4


def test_rank_zero_matrix():
    assert RationalMatrix.zero(3, 5).rank() == 0
    assert RationalMatrix.zero(3, 5).kernel_dim() == 5
    assert RationalMatrix.zero(3, 5).cokernel_dim() == 3


def test_proportional_rows_collapse():
    m = M([[2, 4], [1, 2]])
    assert m.rank() == 1
    assert m.rref() == M([[1, 2], [0, 0]])


def test_empty_shapes_behave_like_zero_maps():
    # a map from a 3-dimensional space to the zero space
    wide = RationalMatrix(3, [])
    assert (wide.nrows, wide.ncols) == (0, 3)
    assert wide.rank() == 0
    assert wide.kernel_dim() == 3
    assert wide.cokernel_dim() == 0
    # a map from the zero space
    tall = M([[], [], []])
    assert tall.rank() == 0
    assert tall.kernel_dim() == 0
    assert tall.cokernel_dim() == 3


@pytest.mark.parametrize(
    "ncols,rows",
    [
        (2, [{2: Fraction(1)}]),  # column index past the last column
        (2, [{-1: Fraction(1)}]),  # negative column index
        (2, [{"0": Fraction(1)}]),  # not an integer index
        (2, [{0: Fraction(0)}]),  # stored zero
        (2, [{0: True}]),  # a bool, not an int
        (2, [{0: 0.5}]),  # a float
        (2, [[Fraction(1), Fraction(0)]]),  # a dense row
        (2, [{}, {1: 0}]),  # a stored zero in a later row
        (2, [{True: 1}]),  # a bool index, not an int
    ],
)
def test_sparse_row_invariants_are_refused(ncols, rows):
    with pytest.raises(ValueError):
        RationalMatrix(ncols, rows)


def test_int_and_fraction_entries_are_accepted():
    m = RationalMatrix(2, [{0: 1, 1: Fraction(1, 2)}])
    assert m.rows == [{0: 1, 1: Fraction(1, 2)}]
    assert m == RationalMatrix(2, [{0: Fraction(1), 1: Fraction(1, 2)}])


def test_entry_reads_absent_cells_as_zero_and_checks_bounds():
    m = M([[0, 3], [0, 0]])
    assert m.rows == [{1: Fraction(3)}, {}]
    assert [m.entry(0, 0), m.entry(0, 1), m.entry(1, 1)] == [0, 3, 0]
    for i, j in [(2, 0), (0, 2), (-1, 0), (0, -1)]:
        with pytest.raises(IndexError):
            m.entry(i, j)


def test_fraction_entries_are_exact():
    m = M([[Fraction(1, 3), Fraction(1, 6)], [Fraction(2, 3), Fraction(1, 3)]])
    assert m.rank() == 1


def test_matmul_shapes_and_values():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a @ b == M([[2, 1], [4, 3]])
    with pytest.raises(ValueError):
        a @ RationalMatrix.zero(3, 3)


def test_stacking():
    a = M([[1, 2]])
    b = M([[3, 4]])
    assert vstack([a, b]) == M([[1, 2], [3, 4]])
    assert hstack([a, b]) == M([[1, 2, 3, 4]])
    with pytest.raises(ValueError):
        vstack([a, M([[1, 2, 3]])])


def test_hstack_keeps_columns_of_empty_rows_and_blocks():
    left = M([[0, 1], [0, 0]])
    right = M([[0], [5]])
    assert hstack([left, RationalMatrix.zero(2, 1), right]) == M([[0, 1, 0, 0], [0, 0, 0, 5]])
    assert hstack([RationalMatrix.zero(2, 0), left]) == left


def test_inverse_round_trip():
    m = M([[2, 1], [1, 1]])
    assert m @ m.inverse() == RationalMatrix.identity(2)
    with pytest.raises(ValueError):
        M([[1, 2], [2, 4]]).inverse()


entry = st.integers(min_value=-6, max_value=6).map(Fraction) | st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)


@st.composite
def matrices(draw, max_dim=5):
    nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(0, max_dim))
    data = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    return M(data, ncols)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_matches_sympy(m):
    assert m.rank() == sympy_rank(dense(m), m.ncols)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_matches_sympy(m):
    assert dense(m.rref()) == sympy_rref(dense(m), m.ncols)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_transpose_and_nullity(m):
    assert m.rank() == m.transpose().rank()
    assert m.rank() + m.kernel_dim() == m.ncols
    assert m.rank() + m.cokernel_dim() == m.nrows


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_rref_is_idempotent(m):
    r = m.rref()
    assert r.rref() == r


@given(matrices(max_dim=4))
@settings(max_examples=40, deadline=None)
def test_transform_reconstructs_input(m):
    reduced, transform = m.rref_with_transform()
    assert transform @ m == reduced
    # the transform is invertible, so the reduction loses nothing
    assert transform.inverse() @ reduced == m


sparse_entry = st.just(Fraction(0)) | entry


@st.composite
def planted(draw):
    """Blocks of known rank on the diagonal of a sparse matrix, with empty
    rows and columns added and rows and columns permuted.  A block of rank
    r is L[:, :r] @ U[:r, :] with L, U unit triangular.  Returns the matrix
    and the planted rank."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=3))
    nrows = sum(r for r, _ in blocks) + draw(st.integers(0, 2))
    ncols = sum(c for _, c in blocks) + draw(st.integers(0, 2))
    cells = [[Fraction(0)] * ncols for _ in range(nrows)]
    total = top = left = 0
    for r, c in blocks:
        k = draw(st.integers(0, min(r, c)))
        lower = [[Fraction(i == t) if i <= t else draw(sparse_entry) for t in range(k)] for i in range(r)]
        upper = [[Fraction(t == j) if j <= t else draw(sparse_entry) for j in range(c)] for t in range(k)]
        for i in range(r):
            for j in range(c):
                cells[top + i][left + j] = sum((lower[i][t] * upper[t][j] for t in range(k)), Fraction(0))
        total, top, left = total + k, top + r, left + c
    row_order = draw(st.permutations(range(nrows)))
    col_order = draw(st.permutations(range(ncols)))
    return M([[cells[i][j] for j in col_order] for i in row_order], ncols), total


@given(planted())
@example((M([], 3), 0))
@example((M([[], []]), 0))
@settings(max_examples=80, deadline=None)
def test_planted_blocks_match_sympy(case):
    m, planted_rank = case
    cells = dense(m)
    assert m.rank() == planted_rank == sympy_rank(cells, m.ncols)
    assert m.pivot_columns() == sympy_pivot_columns(cells, m.ncols)
    assert m.kernel_dim() == m.ncols - planted_rank
    assert m.cokernel_dim() == m.nrows - planted_rank
    reduced = dense(m.rref())
    assert reduced == sympy_rref(cells, m.ncols)
    r, t = m.rref_with_transform()
    assert dense(r) == reduced
    assert t @ m == r
    assert sympy_rank(dense(t), t.ncols) == m.nrows


# ---- the fraction-free forward pass ------------------------------------

# Entries up to 10**6 in size, as ints or as Fractions with denominators up to 97.
wide_entry = st.integers(-(10**6), 10**6) | st.fractions(-(10**6), 10**6, max_denominator=97)


def _spelled(x, as_fraction: bool):
    """An integer value as an int or as a Fraction; any other value as it is."""
    if x.denominator != 1:
        return x
    return Fraction(x) if as_fraction else int(x)


@st.composite
def scaled(draw, max_dim=5):
    """Dense rows that are integer combinations of up to three drawn rows,
    each multiplied by a content of either sign, so rows are dependent,
    have non-unit integer content and lead with negative entries; an
    integer value is spelled as an int or as a Fraction at random."""
    ncols = draw(st.integers(0, max_dim))
    base = draw(st.lists(st.lists(wide_entry, min_size=ncols, max_size=ncols), min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, max_dim))):
        weights = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
        content = draw(st.sampled_from([1, -1, 2, -6, 97, -(10**6)]))
        rows.append([_spelled(content * sum(w * b[j] for w, b in zip(weights, base)), draw(st.booleans())) for j in range(ncols)])
    return rows, ncols


@given(scaled())
@example(([[-2, -4, 6], [3, 6, -9], [0, -5, 10]], 3))
@example(([[Fraction(-1, 97), Fraction(2, 89)], [-(10**6), 3]], 2))
@settings(max_examples=150, deadline=None)
def test_fraction_free_pass_matches_sympy(case):
    rows, ncols = case
    m = M(rows, ncols)
    assert m.rank() == sympy_rank(rows, ncols)
    assert m.pivot_columns() == sympy_pivot_columns(rows, ncols)
    assert dense(m.rref()) == sympy_rref(rows, ncols)


@given(scaled())
@settings(max_examples=150, deadline=None)
def test_int_and_fraction_spellings_reduce_identically(case):
    """Spelling every integer entry as an int or as a Fraction changes
    neither the pivot columns nor a byte of the reduced form, which is
    Fractions throughout."""
    rows, ncols = case
    as_ints = M([[_spelled(x, False) for x in row] for row in rows], ncols)
    as_fractions = M([[_spelled(x, True) for x in row] for row in rows], ncols)
    assert as_ints.pivot_columns() == as_fractions.pivot_columns()
    reduced = as_ints.rref()
    assert repr(reduced) == repr(as_fractions.rref())
    assert all(type(x) is Fraction for row in reduced.rows for x in row.values())

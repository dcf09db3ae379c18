"""Sparse exact linear algebra over the rationals.

A matrix stores one ``{column: Fraction}`` dict per row and no zeros.  The
maps this package eliminates are large and nearly empty (2109 x 741 with
2109 nonzeros for the plane's Euler top map at twist -40, 2442 x 325 with
6325 nonzeros for the curve's graded Jacobian at d = 12, m = 1), so only
the nonzeros are stored and swept.  What matters is that every answer is
exact and that the pivot rule is deterministic, so repeated runs produce
identical reduced forms.

One kernel does all elimination.  Its forward pass inserts the rows in
order and reduces each by the pivot row of its leading (smallest) column
until the row is zero or leads in a column no pivot row holds yet; it then
becomes that column's pivot row, scaled to lead with 1.  The set of pivot
columns depends only on the row space, so rank, kernel and cokernel need
nothing more.  The reduced row echelon form adds back-substitution; it is
unique, so it does not depend on the pivot rule either.  Fill-in stays
inside a connected component of the row/column nonzero pattern, so the
independent blocks of a map (on the toric entries, its lattice degrees)
are never mixed and need no separate split.  No magnitude-based pivoting:
there is no rounding error to fight.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .records import Record

Scalar = Union[int, Fraction]
Row = dict[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact scalars must be int or Fraction, got {type(x).__name__}")


class RationalMatrix(Record):
    """A rows x cols matrix of Fractions, stored as one ``{column: value}``
    dict per row holding the nonzero entries only.  Degenerate shapes
    (0 x n, n x 0) are legal and behave like the corresponding zero maps.
    Two matrices are equal when their shapes and rows are."""

    __slots__ = _fields = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: list[Row]) -> None:
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(rows) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(rows)}")
        for row in rows:
            if not isinstance(row, dict):
                raise ValueError("each row must be a dict from column index to Fraction")
            for j, x in row.items():
                if not isinstance(j, int) or not 0 <= j < ncols:
                    raise ValueError(f"column index {j!r} outside range({ncols})")
                if not isinstance(x, Fraction):
                    raise ValueError(f"entry at column {j} is a {type(x).__name__}, not a Fraction")
                if not x:
                    raise ValueError(f"stored zero at column {j}")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], ncols: int | None = None) -> "RationalMatrix":
        """Build from dense nested sequences.  ``ncols`` is only needed when
        ``rows`` is empty (a 0 x n matrix has no rows to infer n from)."""
        rows = [list(r) for r in rows]
        if not rows:
            return cls(0, ncols or 0, [])
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows in matrix data")
        sparse = [{j: f for j, x in enumerate(r) if (f := _frac(x))} for r in rows]
        return cls(len(rows), width, sparse)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls(nrows, ncols, [{} for _ in range(nrows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [{i: _ONE} for i in range(n)])

    # ---- basics -------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.nrows} x {self.ncols} matrix")
        return self.rows[i].get(j, _ZERO)

    def copy(self) -> "RationalMatrix":
        return RationalMatrix(self.nrows, self.ncols, [dict(row) for row in self.rows])

    def transpose(self) -> "RationalMatrix":
        cols: list[Row] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                cols[j][i] = x
        return RationalMatrix(self.ncols, self.nrows, cols)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: ({self.nrows}x{self.ncols}) @ ({other.nrows}x{other.ncols})"
            )
        out: list[Row] = []
        for row in self.rows:
            acc: Row = {}
            for k, a in row.items():
                for j, b in other.rows[k].items():
                    acc[j] = acc.get(j, _ZERO) + a * b
            out.append({j: x for j, x in acc.items() if x})
        return RationalMatrix(self.nrows, other.ncols, out)

    def is_zero(self) -> bool:
        return not any(self.rows)

    # ---- elimination --------------------------------------------------

    def rref(self) -> "RationalMatrix":
        """Reduced row echelon form (pivots normalized to 1, cleared above
        and below, zero rows last).  Deterministic; does not modify self."""
        reduced = _back_substitute(_echelon(self.rows))
        reduced += [{} for _ in range(self.nrows - len(reduced))]
        return RationalMatrix(self.nrows, self.ncols, reduced)

    def rref_with_transform(self) -> tuple["RationalMatrix", "RationalMatrix"]:
        """Return (R, T) with R = T @ self in reduced row echelon form and
        T an invertible nrows x nrows matrix recording the row operations:
        the two blocks of the reduced form of [self | I].  Pivots right of
        self's columns only lead rows whose left part is zero, so the left
        block is still self's reduced form."""
        n = self.ncols
        reduced = hstack([self, RationalMatrix.identity(self.nrows)]).rref()
        left = [{j: x for j, x in row.items() if j < n} for row in reduced.rows]
        right = [{j - n: x for j, x in row.items() if j >= n} for row in reduced.rows]
        return (
            RationalMatrix(self.nrows, n, left),
            RationalMatrix(self.nrows, self.nrows, right),
        )

    def pivot_columns(self) -> list[int]:
        return sorted(_echelon(self.rows))

    def rank(self) -> int:
        return len(self.pivot_columns())

    def kernel_dim(self) -> int:
        return self.ncols - self.rank()

    def cokernel_dim(self) -> int:
        return self.nrows - self.rank()

    def inverse(self) -> "RationalMatrix":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices can be inverted")
        reduced, transform = self.rref_with_transform()
        if reduced != RationalMatrix.identity(self.nrows):
            raise ValueError("matrix is singular")
        return transform


def _echelon(rows: Iterable[Row]) -> dict[int, Row]:
    """The forward pass: {pivot column: its pivot row, leading with 1}.
    Copies what it reduces, so the rows passed in are left alone."""
    pivots: dict[int, Row] = {}
    for source in rows:
        row = dict(source)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                scale = row[lead]
                pivots[lead] = row if scale == 1 else {j: x / scale for j, x in row.items()}
                break
            _subtract(row, row[lead], pivot)
    return pivots


def _back_substitute(pivots: dict[int, Row]) -> list[Row]:
    """Clear each pivot row at the later pivot columns, last pivot first,
    and return the rows in order of pivot column.  A row that is already
    reduced is zero at every pivot column but its own, so subtracting it
    changes no other pivot entry of the row being cleared."""
    order = sorted(pivots)
    for lead in reversed(order):
        row = pivots[lead]
        for j in [j for j in row if j != lead and j in pivots]:
            _subtract(row, row[j], pivots[j])
    return [pivots[lead] for lead in order]


def _subtract(row: Row, factor: Fraction, pivot: Row) -> None:
    """row -= factor * pivot in place, dropping the entries that cancel."""
    for j, p in pivot.items():
        x = row.get(j)
        if x is None:
            row[j] = -factor * p
        elif x := x - factor * p:
            row[j] = x
        else:
            del row[j]


# ---- module-level conveniences (the names most callers use) ------------


def rank(m: RationalMatrix) -> int:
    return m.rank()


def kernel_dim(m: RationalMatrix) -> int:
    return m.kernel_dim()


def cokernel_dim(m: RationalMatrix) -> int:
    return m.cokernel_dim()


def row_reduce(m: RationalMatrix) -> RationalMatrix:
    return m.rref()


def hstack(blocks: Iterable[RationalMatrix]) -> RationalMatrix:
    """Concatenate matrices side by side (all must share a row count)."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("hstack needs at least one block")
    nrows = blocks[0].nrows
    for b in blocks:
        if b.nrows != nrows:
            raise ValueError("hstack: row counts differ")
    rows: list[Row] = [{} for _ in range(nrows)]
    offset = 0
    for b in blocks:
        for row, part in zip(rows, b.rows):
            if part:  # most rows of a stacked block grid are empty
                row.update((j + offset, x) for j, x in part.items())
        offset += b.ncols
    return RationalMatrix(nrows, offset, rows)


def vstack(blocks: Iterable[RationalMatrix]) -> RationalMatrix:
    """Stack matrices on top of each other (all must share a column count)."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("vstack needs at least one block")
    ncols = blocks[0].ncols
    for b in blocks:
        if b.ncols != ncols:
            raise ValueError("vstack: column counts differ")
    rows = [dict(row) for b in blocks for row in b.rows]
    return RationalMatrix(len(rows), ncols, rows)

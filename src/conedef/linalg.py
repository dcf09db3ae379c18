"""Dense exact linear algebra over the rationals.

Matrices are row-major lists of :class:`fractions.Fraction` and one dense
Gauss-Jordan kernel does all elimination.  They are not small (2109 x 741
for the plane's Euler top map at twist -40, 2442 x 325 for the curve's
graded Jacobian at d = 12, m = 1), nearly all zeros, and every cell is
stored and swept.  What matters is that every answer is exact and that
the pivot choice is deterministic, so repeated runs produce identical
reduced forms.

Pivoting rule: columns are processed left to right, and the pivot for a
column is the first row (top to bottom, among the unfinished rows) with a
nonzero entry.  No magnitude-based pivoting -- there is no rounding error
to fight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


def _frac(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact scalars must be int or Fraction, got {type(x).__name__}")


@dataclass
class RationalMatrix:
    """A rows x cols matrix of Fractions.  Degenerate shapes (0 x n, n x 0)
    are legal and behave like the corresponding zero maps."""

    nrows: int
    ncols: int
    data: list[list[Fraction]]

    def __post_init__(self) -> None:
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.data) != self.nrows:
            raise ValueError(f"expected {self.nrows} rows, got {len(self.data)}")
        for r in self.data:
            if len(r) != self.ncols:
                raise ValueError("ragged rows in matrix data")

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], ncols: int | None = None) -> "RationalMatrix":
        """Build from nested sequences.  ``ncols`` is only needed when
        ``rows`` is empty (a 0 x n matrix has no rows to infer n from)."""
        rows = [list(r) for r in rows]
        if not rows:
            if ncols is None:
                ncols = 0
            return cls(0, ncols, [])
        width = len(rows[0])
        data = [[_frac(x) for x in r] for r in rows]
        return cls(len(rows), width, data)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls(nrows, ncols, [[Fraction(0)] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        m = cls.zero(n, n)
        for i in range(n):
            m.data[i][i] = Fraction(1)
        return m

    # ---- basics -------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def copy(self) -> "RationalMatrix":
        return RationalMatrix(self.nrows, self.ncols, [row[:] for row in self.data])

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            self.ncols,
            self.nrows,
            [[self.data[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: ({self.nrows}x{self.ncols}) @ ({other.nrows}x{other.ncols})"
            )
        out = RationalMatrix.zero(self.nrows, other.ncols)
        for i in range(self.nrows):
            row = self.data[i]
            for k in range(self.ncols):
                a = row[k]
                if a == 0:
                    continue
                other_row = other.data[k]
                out_row = out.data[i]
                for j in range(other.ncols):
                    out_row[j] += a * other_row[j]
        return out

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    # ---- elimination --------------------------------------------------

    def rref(self) -> "RationalMatrix":
        """Reduced row echelon form (pivots normalized to 1, cleared above
        and below).  Deterministic; does not modify self."""
        reduced, _pivots = _gauss_jordan(self.copy())
        return reduced

    def rref_with_transform(self) -> tuple["RationalMatrix", "RationalMatrix"]:
        """Return (R, T) with R = T @ self in reduced row echelon form and
        T an invertible nrows x nrows matrix recording the row operations.
        Pivots right of self's columns in [self | I] only act on rows whose
        left part is zero, so the left block is still self's reduced form."""
        reduced, _ = _gauss_jordan(hstack([self, RationalMatrix.identity(self.nrows)]))
        left = RationalMatrix(
            self.nrows, self.ncols, [row[: self.ncols] for row in reduced.data]
        )
        right = RationalMatrix(
            self.nrows, self.nrows, [row[self.ncols :] for row in reduced.data]
        )
        return left, right

    def pivot_columns(self) -> list[int]:
        _, pivots = _gauss_jordan(self.copy())
        return pivots

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


def _gauss_jordan(m: RationalMatrix) -> tuple[RationalMatrix, list[int]]:
    """In-place Gauss-Jordan on ``m``; returns (m, pivot column indices)."""
    pivots: list[int] = []
    pivot_row = 0
    for col in range(m.ncols):
        if pivot_row >= m.nrows:
            break
        found = None
        for r in range(pivot_row, m.nrows):
            if m.data[r][col] != 0:
                found = r
                break
        if found is None:
            continue
        if found != pivot_row:
            m.data[pivot_row], m.data[found] = m.data[found], m.data[pivot_row]
        inv = Fraction(1) / m.data[pivot_row][col]
        if inv != 1:
            m.data[pivot_row] = [x * inv for x in m.data[pivot_row]]
        for r in range(m.nrows):
            if r == pivot_row:
                continue
            factor = m.data[r][col]
            if factor == 0:
                continue
            prow = m.data[pivot_row]
            m.data[r] = [x - factor * p for x, p in zip(m.data[r], prow)]
        pivots.append(col)
        pivot_row += 1
    return m, pivots


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
    data = [list(chain.from_iterable(b.data[i] for b in blocks)) for i in range(nrows)]
    return RationalMatrix(nrows, sum(b.ncols for b in blocks), data)


def vstack(blocks: Iterable[RationalMatrix]) -> RationalMatrix:
    """Stack matrices on top of each other (all must share a column count)."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("vstack needs at least one block")
    ncols = blocks[0].ncols
    for b in blocks:
        if b.ncols != ncols:
            raise ValueError("vstack: column counts differ")
    data = [row[:] for b in blocks for row in b.data]
    return RationalMatrix(sum(b.nrows for b in blocks), ncols, data)

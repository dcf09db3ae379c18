"""Sparse exact linear algebra over the rationals.

A matrix stores one ``{column: entry}`` dict per row and no zeros.  An
entry is an exact scalar: an ``int`` (not a ``bool``) or a ``Fraction``.
The maps this package eliminates are large and nearly empty (2109 x 741
with 2109 nonzeros for the plane's Euler top map at twist -40, 2442 x 325
with 6325 nonzeros for the curve's graded Jacobian at d = 12, m = 1), so
only the nonzeros are stored and swept.  Every map a command builds is an
integer map (a map that multiplies by a coordinate has entries 1, the
graded Jacobian the int coefficients of its partials), so nothing here
imports ``fractions`` but :meth:`RationalMatrix.rref`, and the validity
check asks :func:`conedef.records.fraction_type`: a Fraction entry exists
only where a caller has loaded it.  What matters is that
every answer is exact and that the pivot rule is deterministic, so
repeated runs produce identical reduced forms.

One kernel does all elimination.  Its forward pass is fraction free, in
the spirit of Bareiss (Math. Comp. 22, 1968): it scales each row to
integers by the lcm of its denominators, inserts the rows in order and
reduces each by the pivot row of its leading (smallest) column with the
integer combination a*row - b*pivot that cancels that column, until the
row is zero or leads in a column no pivot row holds yet.  It then becomes
that column's pivot row, primitive (its content divided out) and leading
with a positive entry; instead of Bareiss's exact division by the previous
pivot, this content division keeps the pivot rows small.  Scaling a row
keeps the row space, and the set of pivot columns depends only on the row
space, so rank, kernel and cokernel need nothing more.  The reduced row
echelon form adds back-substitution over the rationals; it is unique, so
it depends neither on the pivot rule nor on the scaling.  Fill-in stays
inside a connected component of the row/column nonzero pattern, so the
independent blocks of a map are never mixed and need no separate split.
No magnitude-based pivoting: there is no rounding error to fight.
"""

from __future__ import annotations

from math import gcd, lcm

from .records import FrozenRecord, check_count, fraction_type

TYPE_CHECKING = False  # true to type checkers; at run time no command imports typing
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Iterable, Sequence

    Scalar = int | Fraction
    Row = dict[int, Scalar]


class RationalMatrix(FrozenRecord):
    """A matrix of exact scalars (int or Fraction) stored as its column count
    and one ``{column: value}`` dict of nonzero entries per row, so ``nrows``
    is ``len(rows)``; 0 x n and n x 0 are zero maps.  Two matrices are equal
    when their column counts and rows are: an int equals the same Fraction."""

    __slots__ = _fields = ("ncols", "rows")

    def __init__(self, ncols: int, rows: list[Row]) -> None:
        check_count(ncols, "column count")
        fraction = fraction_type()
        for row in rows:
            if not isinstance(row, dict):
                raise ValueError("each row must be a dict from column index to an exact scalar")
            for j, x in row.items():
                if type(j) is not int:
                    raise ValueError(f"column index {j!r} is a {type(j).__name__}, not an int")
                if not 0 <= j < ncols:
                    raise ValueError(f"column index {j!r} outside range({ncols})")
                if type(x) is not int and not isinstance(x, fraction):
                    raise ValueError(f"entry at column {j} is a {type(x).__name__}, not an int or a Fraction")
                if not x:
                    raise ValueError(f"stored zero at column {j}")
        self._set(ncols, rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], ncols: int | None = None) -> "RationalMatrix":
        """Build from dense nested sequences.  ``ncols`` is only needed when
        ``rows`` is empty (a 0 x n matrix has no rows to infer n from)."""
        rows = [list(r) for r in rows]
        width = len(rows[0]) if rows else ncols or 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows in matrix data")
        # only an exact zero is dropped; any other entry is left for __init__ to check
        fraction = fraction_type()
        sparse = [{j: x for j, x in enumerate(r) if x or not (type(x) is int or isinstance(x, fraction))} for r in rows]
        return cls(width, sparse)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "RationalMatrix":
        check_count(nrows, "row count")
        return cls(ncols, [{} for _ in range(nrows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, [{i: 1} for i in range(n)])

    # ---- basics -------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.nrows} x {self.ncols} matrix")
        return self.rows[i].get(j, 0)

    def copy(self) -> "RationalMatrix":
        return RationalMatrix(self.ncols, [dict(row) for row in self.rows])

    def transpose(self) -> "RationalMatrix":
        cols: list[Row] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                cols[j][i] = x
        return RationalMatrix(self.nrows, cols)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: ({self.nrows}x{self.ncols}) @ ({other.nrows}x{other.ncols})")
        out: list[Row] = []
        for row in self.rows:
            acc: Row = {}
            for k, a in row.items():
                for j, b in other.rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: x for j, x in acc.items() if x})
        return RationalMatrix(other.ncols, out)

    def is_zero(self) -> bool:
        return not any(self.rows)

    # ---- elimination --------------------------------------------------

    def rref(self) -> "RationalMatrix":
        """Reduced row echelon form (pivots normalized to 1, cleared above
        and below, zero rows last).  Deterministic; does not modify self."""
        reduced = _back_substitute(_echelon(self.rows))
        reduced += [{} for _ in range(self.nrows - len(reduced))]
        return RationalMatrix(self.ncols, reduced)

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
        return RationalMatrix(n, left), RationalMatrix(self.nrows, right)

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


def _echelon(rows: Iterable[Row]) -> dict[int, dict[int, int]]:
    """The forward pass over the integers: {pivot column: its pivot row},
    primitive and leading with a positive entry.  Copies what it reduces,
    so the rows passed in are left alone."""
    pivots: dict[int, dict[int, int]] = {}
    for source in rows:
        row = _integral(source)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _primitive(row, lead)
                break
            _cancel(row, lead, pivot)
    return pivots


def _integral(row: Row) -> dict[int, int]:
    """A copy of the row scaled by the lcm of its denominators."""
    for x in row.values():
        if type(x) is not int:
            break
    else:
        return dict(row)
    den = lcm(*[x.denominator for x in row.values()])
    return {j: x.numerator * (den // x.denominator) for j, x in row.items()}


def _primitive(row: dict[int, int], lead: int) -> dict[int, int]:
    """The row divided by its content, signed to lead with a positive entry."""
    content = gcd(*row.values())
    if row[lead] < 0:
        content = -content
    return row if content == 1 else {j: x // content for j, x in row.items()}


def _cancel(row: dict[int, int], lead: int, pivot: dict[int, int]) -> None:
    """row = a * row - b * pivot in place, with b / a = row[lead] / pivot[lead]
    in lowest terms (a > 0), so the lead column cancels."""
    a, b = pivot[lead], row[lead]
    if a != 1:
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            for j in row:
                row[j] *= a
    _subtract(row, b, pivot)


def _back_substitute(pivots: dict[int, dict[int, int]]) -> list[Row]:
    """Turn each pivot row into Fractions leading with 1, clear it at the
    later pivot columns, last pivot first, and return the rows in order of
    pivot column.  A row that is already reduced is zero at every pivot
    column but its own, so subtracting it changes no other pivot entry of
    the row being cleared."""
    from fractions import Fraction

    reduced = {lead: {j: Fraction(x, row[lead]) for j, x in row.items()} for lead, row in pivots.items()}
    order = sorted(reduced)
    for lead in reversed(order):
        row = reduced[lead]
        for j in [j for j in row if j != lead and j in reduced]:
            _subtract(row, row[j], reduced[j])
    return [reduced[lead] for lead in order]


def _subtract(row: Row, factor: Scalar, pivot: Row) -> None:
    """row -= factor * pivot in place, dropping the entries that cancel."""
    for j, p in pivot.items():
        x = row.get(j)
        if x is None:
            row[j] = -factor * p
        elif x := x - factor * p:
            row[j] = x
        else:
            del row[j]


# ---- module-level names: the elimination methods themselves ------------
# The package calls the methods; these bindings are the same functions, so
# ``rank(m)`` is ``m.rank()`` with no second body to keep in step.

rank = RationalMatrix.rank
kernel_dim = RationalMatrix.kernel_dim
cokernel_dim = RationalMatrix.cokernel_dim
row_reduce = RationalMatrix.rref


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
            row.update((j + offset, x) for j, x in part.items())
        offset += b.ncols
    return RationalMatrix(offset, rows)


def vstack(blocks: Iterable[RationalMatrix]) -> RationalMatrix:
    """Stack matrices on top of each other (all must share a column count)."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("vstack needs at least one block")
    ncols = blocks[0].ncols
    for b in blocks:
        if b.ncols != ncols:
            raise ValueError("vstack: column counts differ")
    return RationalMatrix(ncols, [dict(row) for b in blocks for row in b.rows])

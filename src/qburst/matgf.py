"""Dense matrices over GF(2^m): products, conjugate transpose, row reduction.

Row reduction keeps track of which original columns are pivots and how
each non-pivot column decomposes over the pivots; no column permutation
is ever applied, so callers can translate free columns straight back to
positions in the parent matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .galois import FieldSpec


@dataclass(frozen=True)
class MatrixGF:
    field: FieldSpec
    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]  # row-major

    @staticmethod
    def make(field: FieldSpec, rows) -> MatrixGF:
        data = tuple(tuple(r) for r in rows)
        ncols = len(data[0]) if data else 0
        for r in data:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for v in r:
                field.check(v)
        return MatrixGF(field, len(data), ncols, data)

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> MatrixGF:
        return MatrixGF(field, rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> MatrixGF:
        return MatrixGF(
            field, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    def entry(self, i: int, j: int) -> int:
        return self.data[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def submatrix(self, row_stop: int, col_start: int, col_stop: int) -> MatrixGF:
        data = tuple(row[col_start:col_stop] for row in self.data[:row_stop])
        return MatrixGF(self.field, row_stop, col_stop - col_start, data)

    def transpose(self) -> MatrixGF:
        data = tuple(zip(*self.data)) if self.rows else tuple(() for _ in range(self.cols))
        return MatrixGF(self.field, self.cols, self.rows, tuple(tuple(r) for r in data))

    def conj_transpose(self) -> MatrixGF:
        f = self.field
        if self.rows == 0:
            return MatrixGF(f, self.cols, 0, tuple(() for _ in range(self.cols)))
        data = tuple(tuple(f.conj(v) for v in col) for col in zip(*self.data))
        return MatrixGF(f, self.cols, self.rows, data)

    def matmul(self, other: MatrixGF) -> MatrixGF:
        if self.field != other.field:
            raise ValueError("matrices over different fields")
        if self.cols != other.rows:
            raise ValueError(f"inner dimensions differ: {self.cols} vs {other.rows}")
        f = self.field
        ot = other.transpose().data
        out = []
        for row in self.data:
            out_row = []
            for col in ot:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc ^= f.mul(a, b)
                out_row.append(acc)
            out.append(tuple(out_row))
        return MatrixGF(f, self.rows, other.cols, tuple(out))

    def matvec(self, vec) -> tuple[int, ...]:
        f = self.field
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self.data:
            acc = 0
            for a, b in zip(row, vec):
                if a and b:
                    acc ^= f.mul(a, b)
            out.append(acc)
        return tuple(out)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for row in self.data for v in row)


def product_is_zero(a: MatrixGF, b: MatrixGF) -> bool:
    """True iff A * B is the zero matrix."""
    return a.matmul(b).is_zero


@dataclass(frozen=True)
class ReducedForm:
    """Result of Gaussian elimination with leftmost-greedy pivoting.

    combination[j] gives, for each free (non-pivot) column j, the
    coefficients over pivot_cols that reproduce the original column j.
    """

    rank: int
    pivot_cols: tuple[int, ...]
    free_cols: tuple[int, ...]
    combination: dict[int, tuple[int, ...]]


def row_reduce(m: MatrixGF) -> ReducedForm:
    f = m.field
    work = [list(row) for row in m.data]
    nrows, ncols = m.rows, m.cols
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(ncols):
        sel = next((r for r in range(pivot_row, nrows) if work[r][col]), None)
        if sel is None:
            continue
        if sel != pivot_row:
            work[pivot_row], work[sel] = work[sel], work[pivot_row]
        inv = f.inv(work[pivot_row][col])
        if inv != 1:
            work[pivot_row] = [f.mul(inv, v) for v in work[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and work[r][col]:
                c = work[r][col]
                prow = work[pivot_row]
                work[r] = [v ^ f.mul(c, p) for v, p in zip(work[r], prow)]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == nrows:
            break
    pivots = tuple(pivot_cols)
    free = tuple(j for j in range(ncols) if j not in set(pivots))
    combination = {
        j: tuple(work[i][j] for i in range(len(pivots))) for j in free
    }
    return ReducedForm(len(pivots), pivots, free, combination)


def rank(m: MatrixGF) -> int:
    return row_reduce(m).rank

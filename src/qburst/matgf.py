"""Dense matrices over GF(2^m): products, conjugate transpose, row reduction.

Row reduction keeps track of which original columns are pivots and how
each non-pivot column decomposes over the pivots; no column permutation
is ever applied, so callers can translate free columns straight back to
positions in the parent matrix.

It builds a leftmost-greedy column basis over packed columns.  Column j
becomes one int with m bits per entry, laid out like `Polynomial.bits`,
and carries its expression over the pivot columns in the digits above
the entries.  Each basis vector is scaled so that its lowest nonzero
entry is 1 and is kept as its doublings x^k * v (`FieldSpec.doublings`,
the step `Polynomial` multiplies by too).  A column cancels its lowest
nonzero entry c against the basis vector with that pivot by XORing the
doublings at the set bits of c, so no row operation makes a field
multiply per entry.  A column whose lowest nonzero entry has no basis
vector is outside the span of the earlier columns and becomes a pivot;
a column that cancels to zero is free, and its expression is its
combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lshift

from .galois import FieldSpec, _times


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
    bits, mask = f.m, f.q - 1
    height = m.rows * bits
    # Column j packed like Polynomial.bits (row i in digit i), with the
    # expression of the reduced column over the pivot columns in the digits
    # from `height` up (pivot k in digit k of the expression).
    shifts = range(0, height, bits)
    columns = [sum(map(lshift, col, shifts)) for col in zip(*m.data)] or [0] * m.cols
    low = (1 << height) - 1
    # pivot digit -> doublings of the basis vector whose lowest nonzero
    # digit it is, scaled so that digit is 1
    basis: dict[int, list[int]] = {}
    pivot_cols: list[int] = []
    expressions: dict[int, int] = {}
    for j, vec in enumerate(columns):
        while vec & low:
            pos = ((vec & -vec).bit_length() - 1) // bits
            doublings = basis.get(pos)
            if doublings is None:
                break
            # cancel digit pos: add c times the basis vector, one
            # doubling per set bit of c; only higher digits change
            vec ^= _times(doublings, (vec >> (pos * bits)) & mask)
        if vec & low:
            # outside the span of the earlier columns: a new pivot
            vec ^= 1 << (height + len(pivot_cols) * bits)
            inv = f.inv((vec >> (pos * bits)) & mask)
            doublings = f.doublings(vec)
            if inv != 1:
                # x^k (inv vec) = (x^k inv) vec, and doublings(inv) lists x^k inv
                doublings = [_times(doublings, c) for c in f.doublings(inv)]
            basis[pos] = doublings
            pivot_cols.append(j)
        else:
            expressions[j] = vec >> height
    pivots = tuple(pivot_cols)
    rank_ = len(pivots)
    combination = {
        j: tuple((e >> (k * bits)) & mask for k in range(rank_))
        for j, e in expressions.items()
    }
    return ReducedForm(rank_, pivots, tuple(expressions), combination)


def rank(m: MatrixGF) -> int:
    return row_reduce(m).rank

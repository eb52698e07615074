"""Dense matrices over GF(2^m): products, conjugate transpose, row reduction.

A matrix stores only its columns, each one int packed like
`Polynomial.bits` (entry (i, j) is digit i of column j); the row-major
`data` is derived.  A product XORs the doublings (`FieldSpec.doublings`)
of the left factor's columns at the set bits of the right one's entries.

Row reduction keeps track of which original columns are pivots and how
each non-pivot column decomposes over the pivots; no column permutation
is ever applied, so callers can translate free columns straight back to
positions in the parent matrix.

It builds a leftmost-greedy column basis over the packed columns.  Each
column carries its expression over the pivot columns in the digits above
its entries.  A basis vector is kept as it was reduced, and is scaled
only when a later column first cancels against it: then its lowest
nonzero entry is made 1 and it is kept as its doublings x^k * v (the
step `Polynomial` multiplies by too), from the doublings of the inverse
of that entry (`FieldSpec.scalar_doublings`).  So a basis vector that
no column cancels against (most of them, in the shift sweep's matrices)
is never scaled.  A column cancels its lowest nonzero entry c against
the basis vector with that pivot by XORing the doublings at the set bits
of c, so no row operation makes a field multiply.  A column whose lowest
nonzero entry has no basis vector is outside the span of the earlier
columns and becomes a pivot; a column that cancels to zero is free, and
its expression is its combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import lshift, xor

from .galois import FieldSpec, _times


def _pack(field: FieldSpec, vectors) -> tuple[int, ...]:
    """Each vector of entries packed into one int, entry i in digit i."""
    return tuple(sum(map(lshift, v, range(0, len(v) * field.m, field.m))) for v in vectors)


@dataclass(frozen=True)
class MatrixGF:
    field: FieldSpec
    rows: int
    columns: tuple[int, ...]  # column j packed, row i in digit i

    @staticmethod
    def make(field: FieldSpec, rows) -> MatrixGF:
        data = [tuple(map(field.check, r)) for r in rows]
        if any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged rows")
        return MatrixGF(field, len(data), _pack(field, zip(*data)))

    @property
    def cols(self) -> int:
        return len(self.columns)

    @property
    def data(self) -> tuple[tuple[int, ...], ...]:
        """The entries, row-major."""
        m, mask = self.field.m, self.field.q - 1
        return tuple(
            tuple((c >> shift) & mask for c in self.columns)
            for shift in range(0, self.rows * m, m)
        )

    def submatrix(self, row_stop: int, col_start: int, col_stop: int) -> MatrixGF:
        low = (1 << (row_stop * self.field.m)) - 1
        columns = tuple(c & low for c in self.columns[col_start:col_stop])
        return MatrixGF(self.field, row_stop, columns)

    def transpose(self) -> MatrixGF:
        return MatrixGF(self.field, self.cols, _pack(self.field, self.data))

    def conj_transpose(self) -> MatrixGF:
        f = self.field
        return MatrixGF(f, self.cols, _pack(f, (tuple(map(f.conj, row)) for row in self.data)))

    def matmul(self, other: MatrixGF) -> MatrixGF:
        if self.field != other.field:
            raise ValueError("matrices over different fields")
        if self.cols != other.rows:
            raise ValueError(f"inner dimensions differ: {self.cols} vs {other.rows}")
        f = self.field
        m, mask = f.m, f.q - 1
        # column j of the product: the columns k of self, scaled by entry (k, j) of other
        doublings = [f.doublings(c) for c in self.columns]
        columns = tuple(
            reduce(xor, (_times(d, (c >> (k * m)) & mask) for k, d in enumerate(doublings)), 0)
            for c in other.columns
        )
        return MatrixGF(f, self.rows, columns)

    @property
    def is_zero(self) -> bool:
        return not any(self.columns)


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
    # each reduced column carries its expression over the pivot columns in
    # the digits from `height` up (pivot k in digit k of the expression)
    low = (1 << height) - 1
    # by pivot digit: the basis vector whose lowest nonzero digit it is (0
    # for none), and, once a column has cancelled against it, its doublings
    # scaled so that digit is 1 (None until then)
    basis = [0] * m.rows
    scaled: list[list[int] | None] = [None] * m.rows
    pivot_cols: list[int] = []
    expressions: dict[int, int] = {}
    for j, vec in enumerate(m.columns):
        while vec & low:
            pos = ((vec & -vec).bit_length() - 1) // bits
            doublings = scaled[pos]
            if doublings is None:
                pivot = basis[pos]
                if not pivot:
                    break
                doublings = f.doublings(pivot)
                inv = f.inv((pivot >> (pos * bits)) & mask)
                if inv != 1:
                    # x^k (inv v) = (x^k inv) v, and doublings(inv) lists x^k inv
                    doublings = [_times(doublings, c) for c in f.scalar_doublings(inv)]
                scaled[pos] = doublings
            # cancel digit pos: add c times the basis vector, one
            # doubling per set bit of c; only higher digits change
            vec ^= _times(doublings, (vec >> (pos * bits)) & mask)
        if vec & low:
            # outside the span of the earlier columns: a new pivot
            basis[pos] = vec ^ (1 << (height + len(pivot_cols) * bits))
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

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
its entries.  A basis vector is never scaled: when a column first cancels
against it, its doublings x^k * v (the step `Polynomial` multiplies by
too) and the log of the inverse of its lowest nonzero entry, its lead,
are taken once.  A column cancels its lowest nonzero entry c against the
basis vector with that pivot by XORing the doublings at the set bits of
c / lead (from the field's exp/log tables), so no row operation makes a
field multiply.  A column whose lowest nonzero entry has no basis vector
is outside the span of the earlier columns and becomes a pivot; a column
that cancels to zero is free, and its expression is its combination.
"""

from __future__ import annotations

from functools import reduce
from operator import lshift, xor
from typing import NamedTuple

from .galois import FieldSpec, _times


def _pack(field: FieldSpec, vectors) -> tuple[int, ...]:
    """Each vector of entries packed into one int, entry i in digit i."""
    return tuple(sum(map(lshift, v, range(0, len(v) * field.m, field.m))) for v in vectors)


class MatrixGF(NamedTuple):
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


class ReducedForm(NamedTuple):
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
    exp, log = f._exp, f._log
    height = m.rows * bits
    # each reduced column carries its expression over the pivot columns in
    # the digits from `height` up (pivot k in digit k of the expression)
    low = (1 << height) - 1
    # by pivot digit: the basis vector with that lowest nonzero digit (0 for
    # none), and once a column cancels against it, its doublings and log(1 / lead)
    basis = [0] * m.rows
    cancels: list[tuple[list[int], int] | None] = [None] * m.rows
    tops = 0  # the top bit of every digit, entries and expression, once needed
    pivot_cols: list[int] = []
    expressions: dict[int, int] = {}
    for j, vec in enumerate(m.columns):
        while vec & low:
            pos = ((vec & -vec).bit_length() - 1) // bits
            entry = cancels[pos]
            if entry is None:
                pivot = basis[pos]
                if not pivot:
                    break
                doublings = [pivot]
                if bits > 1 and not tops:
                    tops = ((1 << (m.rows + m.cols) * bits) - 1) // mask << (bits - 1)
                    reduction = f.modulus ^ f.q
                for _ in range(bits - 1):  # FieldSpec.doublings under that one mask
                    top = pivot & tops
                    pivot = ((pivot ^ top) << 1) ^ ((top >> (bits - 1)) * reduction)
                    doublings.append(pivot)
                entry = cancels[pos] = (doublings, log[f.inv((basis[pos] >> (pos * bits)) & mask)])
            # add c / lead times the basis vector: digit pos cancels, only higher ones change
            doublings, scale = entry
            c = exp[log[(vec >> (pos * bits)) & mask] + scale]
            if c == 1:
                vec ^= doublings[0]
                continue
            for x_j in doublings:
                if c & 1:
                    vec ^= x_j
                c >>= 1
        if vec & low:
            # outside the span of the earlier columns: a new pivot
            basis[pos] = vec ^ (1 << (height + len(pivot_cols) * bits))
            pivot_cols.append(j)
        else:
            expressions[j] = vec >> height
    rank_ = len(pivot_cols)
    combination = {j: tuple((e >> (k * bits)) & mask for k in range(rank_))
                   for j, e in expressions.items()}
    return ReducedForm(rank_, tuple(pivot_cols), tuple(expressions), combination)


def rank(m: MatrixGF) -> int:
    return row_reduce(m).rank

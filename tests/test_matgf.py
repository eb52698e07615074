import random
from itertools import product
from math import prod

import pytest

from qburst.galois import GF2, GF4, OMEGA, OMEGA_BAR, FieldSpec, field_make
from qburst.matgf import MatrixGF, product_is_zero, rank, row_reduce
from qburst.cycliccode import code_from_generator
from qburst.polyring import Polynomial, divisor_generators, factor_xn_minus_1


def _identity(field, n):
    return MatrixGF.make(field, [[int(i == j) for j in range(n)] for i in range(n)])


def _column(m, j):
    return tuple(row[j] for row in m.data)


def test_conj_transpose_examples():
    m = MatrixGF.make(GF4, [[OMEGA]])
    assert m.conj_transpose().data == ((OMEGA_BAR,),)
    eye = _identity(GF4, 3)
    assert eye.conj_transpose().data == eye.data
    m2 = MatrixGF.make(GF2, [[1, 0, 1], [0, 1, 1]])
    assert m2.conj_transpose().data == m2.transpose().data


def test_conj_transpose_involution():
    rng = random.Random(5)
    for _ in range(50):
        rows = [[rng.randrange(4) for _ in range(4)] for _ in range(3)]
        m = MatrixGF.make(GF4, rows)
        assert m.conj_transpose().conj_transpose().data == m.data


def test_row_reduce_identity():
    red = row_reduce(_identity(GF4, 3))
    assert red.rank == 3
    assert red.free_cols == ()


def test_row_reduce_duplicate_column():
    col = [1, OMEGA, 0]
    m = MatrixGF.make(GF4, [[c, c] for c in col])
    red = row_reduce(m)
    assert red.rank == 1
    assert red.free_cols == (1,)
    assert red.combination[1] == (1,)


def test_row_reduce_gf4_example():
    # row 2 = w^2 * row 1, so rank 1 and column 1 = w * column 0
    m = MatrixGF.make(GF4, [[1, OMEGA], [OMEGA_BAR, 1]])
    assert GF4.mul(OMEGA_BAR, OMEGA) == 1
    red = row_reduce(m)
    assert red.rank == 1
    assert red.pivot_cols == (0,)
    assert red.combination[1] == (OMEGA,)


def _random_matrix(rng, field, rows, cols):
    return MatrixGF.make(
        field, [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)]
    )


def _assert_combinations(m, red):
    """Each free column is its combination of the pivot columns."""
    assert red.rank == len(red.pivot_cols)
    assert sorted(red.pivot_cols + red.free_cols) == list(range(m.cols))
    assert set(red.combination) == set(red.free_cols)
    for j in red.free_cols:
        assert len(red.combination[j]) == red.rank
        acc = [0] * m.rows
        for coeff, p in zip(red.combination[j], red.pivot_cols):
            for i in range(m.rows):
                acc[i] ^= m.field.mul(coeff, m.data[i][p])
        assert tuple(acc) == _column(m, j), (m.field, m.data, j)


def test_remultiplication_property():
    rng = random.Random(11)
    for field in (GF2, GF4, field_make(3)):
        for _ in range(40):
            m = _random_matrix(rng, field, rng.randrange(1, 6), rng.randrange(1, 7))
            _assert_combinations(m, row_reduce(m))


def _oracle_matrix(rng, field, rows, cols):
    """Columns that are zero, combinations of earlier columns, or random."""
    columns = []
    for _ in range(cols):
        kind = rng.randrange(4)
        if kind == 0:
            col = [0] * rows
        elif kind == 1 and columns:
            col = [0] * rows
            for prev in rng.sample(columns, rng.randrange(1, min(3, len(columns)) + 1)):
                c = rng.randrange(field.q)
                col = [a ^ field.mul(c, b) for a, b in zip(col, prev)]
        else:
            col = [rng.randrange(field.q) if rng.randrange(3) else 0 for _ in range(rows)]
        columns.append(col)
    return MatrixGF.make(field, [[col[i] for col in columns] for i in range(rows)])


SPAN_LIMIT = 4096


def test_row_reduce_matches_span_enumeration():
    """Leftmost-greedy pivots against brute-force spans of the earlier columns."""
    rng = random.Random(2024)
    checked_pivots = checked_free = 0
    for field in (GF2, GF4, field_make(3), field_make(6)):
        for trial in range(150):
            rows = (0, 1, 2, 5, 9)[trial % 5]
            cols = rng.randrange(0, 10) if trial % 3 else rng.randrange(0, max(rows, 1))
            m = _oracle_matrix(rng, field, rows, cols)
            red = row_reduce(m)
            _assert_combinations(m, red)
            span = {(0,) * m.rows}
            for j in range(m.cols):
                if len(span) * field.q > SPAN_LIMIT:
                    break
                col = _column(m, j)
                assert (j in red.pivot_cols) == (col not in span), (field, m.data, j)
                if col not in span:
                    span = {
                        tuple(v ^ field.mul(c, x) for v, x in zip(vec, col))
                        for vec in span
                        for c in field.elements()
                    }
                checked_pivots += 1
            for j in red.free_cols:
                # an expression over the earlier pivots only
                combo = red.combination[j]
                assert all(c == 0 for c, p in zip(combo, red.pivot_cols) if p > j)
                checked_free += 1
    assert checked_pivots > 1000 and checked_free > 500


def _rank_by_rows(field, columns):
    """The rank of the columns, by entry-wise elimination on the rows."""
    rows = [list(r) for r in zip(*columns)]
    rank_ = 0
    for j in range(len(columns)):
        pivot = next((i for i in range(rank_, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        inv = field.inv(rows[rank_][j])
        for i, row in enumerate(rows):
            if i != rank_ and row[j]:
                c = field.mul(row[j], inv)
                rows[i] = [a ^ field.mul(c, b) for a, b in zip(row, rows[rank_])]
        rank_ += 1
    return rank_


@pytest.mark.parametrize("m", [8, 12, 16])
def test_row_reduce_over_large_fields(m):
    # the elimination reads the exp/log tables and a top-bit mask of m bits
    # per digit: a column is a pivot iff it raises the rank of the columns
    # before it (an entry-wise oracle), and each free column is its combination
    field = field_make(m)
    rng = random.Random(m)
    deficient = 0
    for _ in range(40):
        mat = _oracle_matrix(rng, field, rng.randrange(1, 13), rng.randrange(1, 14))
        red = row_reduce(mat)
        _assert_combinations(mat, red)
        columns = [_column(mat, j) for j in range(mat.cols)]
        ranks = [_rank_by_rows(field, columns[:j]) for j in range(mat.cols + 1)]
        assert red.pivot_cols == tuple(j for j in range(mat.cols) if ranks[j + 1] > ranks[j])
        deficient += bool(red.free_cols)
    assert deficient > 30


def _lead(m, j):
    """The lowest nonzero entry of column j."""
    return next(c for c in _column(m, j) if c)


def test_row_order_leaves_the_reduced_form():
    # permuting the rows changes no dependency among the columns nor its
    # coefficients, so every row order reduces to the same form
    rng = random.Random(29)
    deficient = zero_cols = lead_not_one = 0
    for field in (GF2, GF4, field_make(3), field_make(6)):
        for _ in range(60):
            rows = rng.randrange(1, 9)
            m = _oracle_matrix(rng, field, rows, rng.randrange(1, 12))
            red = row_reduce(m)
            shuffled = list(range(rows))
            rng.shuffle(shuffled)
            for order in (range(rows - 1, -1, -1), shuffled):
                permuted = MatrixGF.make(field, [m.data[i] for i in order])
                assert row_reduce(permuted) == red, (field, m.data, list(order))
            deficient += bool(red.free_cols)
            zero_cols += not all(m.columns)
            lead_not_one += bool(red.pivot_cols) and _lead(m, red.pivot_cols[0]) != 1
    assert deficient > 150 and zero_cols > 150 and lead_not_one > 100


def test_row_reduce_makes_no_field_multiply(monkeypatch):
    # no pivot is ever scaled: a cancellation maps its digit c to c / lead
    # through the exp/log tables and XORs the pivot's doublings at the bits
    # of that, so FieldSpec.mul is never called
    rng = random.Random(31)
    cases = []
    for field in (GF4, field_make(3)):
        c = 1 + field.q // 2  # neither 0 nor 1
        # column 1 is c times column 0, whose lead c is not 1
        cases.append(MatrixGF.make(field, [[c, field.mul(c, c)], [1, c], [0, 0]]))
        cases += (_oracle_matrix(rng, field, rng.randrange(2, 7), rng.randrange(4, 12))
                  for _ in range(40))
    inverted = []
    inv = FieldSpec.inv

    def refuse(*args):
        raise AssertionError("row_reduce called FieldSpec.mul")

    monkeypatch.setattr(FieldSpec, "mul", refuse)
    monkeypatch.setattr(FieldSpec, "inv", lambda field, a: inverted.append(a) or inv(field, a))
    reduced = [row_reduce(m) for m in cases]
    monkeypatch.undo()
    for m, red in zip(cases, reduced):
        _assert_combinations(m, red)
    assert reduced[0].combination == {1: (3,)}  # c = 3 over GF(4)
    # one inverse per pivot that a column cancels against, many of a lead not 1
    assert sum(a != 1 for a in inverted) > 100


def test_rank_transpose_and_bound():
    rng = random.Random(13)
    for _ in range(60):
        m = _random_matrix(rng, GF4, rng.randrange(1, 6), rng.randrange(1, 6))
        r = rank(m)
        assert r == rank(m.transpose())
        assert r <= min(m.rows, m.cols)


def test_product_is_zero():
    a = MatrixGF.make(GF4, [[1, 2], [3, 1]])
    z = MatrixGF.make(GF4, [[0, 0], [0, 0]])
    assert product_is_zero(a, z)
    eye = _identity(GF4, 2)
    assert not product_is_zero(eye, eye)
    with pytest.raises(ValueError):
        a.matmul(MatrixGF.make(GF4, [[0], [0], [0]]))
    # parity-check matrix of the [5,3]_4 code annihilates its conjugate transpose
    code = code_from_generator(5, Polynomial.make(GF4, (1, OMEGA, 1)))
    assert product_is_zero(code.H, code.H.conj_transpose())


def _sparse_entries(rng, field, rows, cols):
    """Random entries, each nonzero with probability 1/2."""
    return [[rng.randrange(1, field.q) if rng.randrange(2) else 0 for _ in range(cols)]
            for _ in range(rows)]


def test_packed_matrix_matches_entry_definitions():
    rng = random.Random(24)
    zero_seen = 0
    for field in (GF2, GF4, field_make(3)):
        for _ in range(80):
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            entries = _sparse_entries(rng, field, rows, cols)
            m = MatrixGF.make(field, entries)
            assert (m.rows, m.cols) == (rows, cols)
            assert m.data == tuple(map(tuple, entries))
            t = m.transpose()
            assert (t.rows, t.cols) == (cols, rows)
            assert all(t.data[j][i] == entries[i][j] for i in range(rows) for j in range(cols))
            row_stop = rng.randrange(rows + 1)
            col_start = rng.randrange(cols + 1)
            col_stop = rng.randrange(col_start, cols + 1)
            sub = m.submatrix(row_stop, col_start, col_stop)
            assert (sub.rows, sub.cols) == (row_stop, col_stop - col_start)
            assert sub.data == tuple(tuple(row[col_start:col_stop]) for row in entries[:row_stop])
            assert m.is_zero == all(v == 0 for row in entries for v in row)
            zero_seen += sub.is_zero
            inner = rng.randrange(1, 5)
            other_entries = _sparse_entries(rng, field, cols, inner)
            product = m.matmul(MatrixGF.make(field, other_entries))
            expected = [[0] * inner for _ in range(rows)]
            for i in range(rows):
                for j in range(inner):
                    for k in range(cols):
                        expected[i][j] ^= field.mul(entries[i][k], other_entries[k][j])
            assert (product.rows, product.cols) == (rows, inner)
            assert product.data == tuple(map(tuple, expected)), (field, entries, other_entries)
            if field.m > 2:
                with pytest.raises(ValueError):
                    m.conj_transpose()
                continue
            c = m.conj_transpose()
            assert (c.rows, c.cols) == (cols, rows)
            assert all(
                c.data[j][i] == field.conj(entries[i][j]) for i in range(rows) for j in range(cols)
            )
    assert zero_seen > 10


def _shape(m):
    return m.rows, m.cols


def test_empty_shapes():
    for field in (GF2, GF4, field_make(3)):
        tall = MatrixGF.make(field, [[], [], []])
        assert _shape(tall) == (3, 0) and tall.data == ((), (), ())
        wide = tall.transpose()
        assert _shape(wide) == (0, 3) and wide.data == ()
        assert _shape(wide.transpose()) == (3, 0)
        assert _shape(MatrixGF.make(field, [])) == (0, 0)
        square = _identity(field, 3)
        assert _shape(square.submatrix(0, 0, 2)) == (0, 2)
        assert _shape(square.submatrix(2, 1, 1)) == (2, 0)
        outer = tall.matmul(wide)
        assert _shape(outer) == (3, 3) and outer.data == ((0, 0, 0),) * 3
        inner = wide.matmul(square)
        assert _shape(inner) == (0, 3) and inner.data == ()
        assert tall.is_zero and wide.is_zero and outer.is_zero
        if field.m <= 2:
            assert _shape(tall.conj_transpose()) == (0, 3)
            assert _shape(wide.conj_transpose()) == (3, 0)


def _codes_for_generator_matrices():
    """Every cyclic code of the odd lengths 5, 7, 9, 15 over GF(2) and
    GF(4), and of the even length 6: x^6 - 1 = (x^3 - 1)^2, so its monic
    divisors are the products of the factors of x^3 - 1, each squared at most."""
    for field in (GF2, GF4):
        for n in (5, 7, 9, 15):
            for g in divisor_generators(n, field):
                yield code_from_generator(n, g)
        factors = factor_xn_minus_1(3, field)
        for powers in product(range(3), repeat=len(factors)):
            g = prod((p for p, k in zip(factors, powers) for _ in range(k)),
                     start=Polynomial.one(field))
            yield code_from_generator(6, g)


def test_generator_and_check_matrices_match_their_entries():
    # G[i][j] = g_(j-i) and H[i][i+j] = h_(k-j), every other entry 0
    checked = even = 0
    for code in _codes_for_generator_matrices():
        n, k, r = code.n, code.k, code.r
        G, H = code.G, code.H
        assert (G.rows, G.cols, H.rows, H.cols) == (k, n, r, n)
        assert G.data == tuple(
            tuple(code.g.coeff(j - i) for j in range(n)) for i in range(k)
        ), code
        assert H.data == tuple(
            tuple(code.h.coeff(k - (c - i)) if 0 <= c - i <= k else 0 for c in range(n))
            for i in range(r)
        ), code
        checked += 1
        even += n % 2 == 0
    assert checked > 60 and even >= 8

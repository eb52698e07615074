import random

import pytest

from qburst.galois import GF2, GF4, OMEGA, OMEGA_BAR, field_make
from qburst.matgf import MatrixGF, product_is_zero, rank, row_reduce
from qburst.cycliccode import code_from_generator
from qburst.polyring import Polynomial


def test_conj_transpose_examples():
    m = MatrixGF.make(GF4, [[OMEGA]])
    assert m.conj_transpose().data == ((OMEGA_BAR,),)
    eye = MatrixGF.identity(GF4, 3)
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
    red = row_reduce(MatrixGF.identity(GF4, 3))
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


def test_remultiplication_property():
    rng = random.Random(11)
    for field in (GF2, GF4, field_make(3)):
        for _ in range(40):
            m = _random_matrix(rng, field, rng.randrange(1, 6), rng.randrange(1, 7))
            red = row_reduce(m)
            assert len(red.pivot_cols) == red.rank
            assert sorted(red.pivot_cols + red.free_cols) == list(range(m.cols))
            for j in red.free_cols:
                acc = [0] * m.rows
                for coeff, p in zip(red.combination[j], red.pivot_cols):
                    for i in range(m.rows):
                        acc[i] ^= field.mul(coeff, m.entry(i, p))
                assert tuple(acc) == m.column(j)


def test_rank_transpose_and_bound():
    rng = random.Random(13)
    for _ in range(60):
        m = _random_matrix(rng, GF4, rng.randrange(1, 6), rng.randrange(1, 6))
        r = rank(m)
        assert r == rank(m.transpose())
        assert r <= min(m.rows, m.cols)


def test_product_is_zero():
    a = MatrixGF.make(GF4, [[1, 2], [3, 1]])
    z = MatrixGF.zeros(GF4, 2, 2)
    assert product_is_zero(a, z)
    eye = MatrixGF.identity(GF4, 2)
    assert not product_is_zero(eye, eye)
    with pytest.raises(ValueError):
        a.matmul(MatrixGF.zeros(GF4, 3, 1))
    # parity-check matrix of the [5,3]_4 code annihilates its conjugate transpose
    code = code_from_generator(5, Polynomial.make(GF4, (1, OMEGA, 1)))
    assert product_is_zero(code.H, code.H.conj_transpose())

import random
from itertools import product

import pytest

from qburst.galois import GF2, GF4, OMEGA
from qburst.matgf import product_is_zero, rank
from qburst.polyring import Polynomial, divisor_generators
from qburst.cycliccode import (
    BurstPattern,
    CyclicCode,
    burst_length,
    classical_burst_limit,
    code_from_generator,
    contains,
    css_dual_containing,
    hermitian_dual_containing,
    in_euclidean_dual,
    in_hermitian_dual,
    shortened_check_matrix,
    syndrome,
)


def P(field, *coeffs):
    return Polynomial.make(field, coeffs)


HAMMING = code_from_generator(7, P(GF2, 1, 1, 0, 1))
QUAD5 = code_from_generator(5, P(GF4, 1, OMEGA, 1))


def test_code_from_generator_examples():
    assert (HAMMING.k, HAMMING.r) == (4, 3)
    assert HAMMING.h == P(GF2, 1, 1, 1, 0, 1)
    assert (QUAD5.k, QUAD5.r) == (3, 2)
    with pytest.raises(ValueError, match="does not divide"):
        code_from_generator(7, P(GF2, 1, 0, 1))  # x^2 + 1


def _code_family():
    for n, field in ((7, GF2), (15, GF2), (5, GF4), (9, GF4)):
        for g in divisor_generators(n, field, (1, n - 1)):
            yield code_from_generator(n, g)


def test_structural_invariants():
    for code in _code_family():
        assert code.g * code.h == Polynomial.xn_minus_1(code.field, code.n)
        assert product_is_zero(code.H, code.G.transpose())
        assert rank(code.G) == code.k
        assert rank(code.H) == code.r
        # trailing square block of H is lower triangular with nonzero diagonal
        last = code.H.column(code.n - 1)
        assert all(v == 0 for v in last[:-1]) and last[-1] != 0
        for i in range(code.r):
            assert code.H.entry(i, code.n - code.r + i) != 0
            for j in range(i + 1, code.r):
                assert code.H.entry(i, code.n - code.r + j) == 0


def test_syndrome_examples():
    assert syndrome(HAMMING, (0,) * 7) == (0, 0, 0)
    for row in HAMMING.G.data:
        assert syndrome(HAMMING, row) == (0, 0, 0)
    e = (0, 0, 0, 0, 0, 0, 1)
    assert syndrome(HAMMING, e) == (1, 0, 1)  # x^6 mod (x^3+x+1) = x^2 + 1
    with pytest.raises(ValueError):
        syndrome(HAMMING, (0,) * 6)


def test_syndrome_vanishes_exactly_on_kernel_of_H():
    rng = random.Random(23)
    for code in (HAMMING, QUAD5):
        for _ in range(1000):
            v = tuple(rng.randrange(code.field.q) for _ in range(code.n))
            via_h = code.H.matvec(v)
            zero_h = all(x == 0 for x in via_h)
            zero_s = all(x == 0 for x in syndrome(code, v))
            assert zero_h == zero_s == contains(code, v)


def test_contains_examples():
    assert contains(HAMMING, (0,) * 7)
    for row in HAMMING.G.data:
        assert contains(HAMMING, row)
    for i in range(7):
        v = [0] * 7
        v[i] = 1
        assert not contains(HAMMING, tuple(v))


def test_cyclic_closure():
    rng = random.Random(31)
    for code in (HAMMING, QUAD5):
        for _ in range(100):
            msg = [rng.randrange(code.field.q) for _ in range(code.k)]
            word = [0] * code.n
            for i, m in enumerate(msg):
                if m:
                    for j, c in enumerate(code.g.coeffs):
                        word[i + j] ^= code.field.mul(m, c)
            shifted = tuple([word[-1]] + word[:-1])
            assert contains(code, shifted)


def test_hermitian_dual_containing():
    assert hermitian_dual_containing(QUAD5)
    conj_code = code_from_generator(5, P(GF4, 1, 3, 1))
    assert hermitian_dual_containing(conj_code)
    trivial = code_from_generator(5, P(GF4, 1))
    assert hermitian_dual_containing(trivial)
    with pytest.raises(ValueError):
        hermitian_dual_containing(HAMMING)


def test_css_dual_containing():
    assert css_dual_containing(HAMMING, HAMMING)
    whole = code_from_generator(3, P(GF2, 1))
    parity = code_from_generator(3, P(GF2, 1, 1))
    assert css_dual_containing(whole, parity)
    assert not css_dual_containing(parity, parity)


def _divisor_codes(n, field):
    return [code_from_generator(n, g) for g in divisor_generators(n, field)]


def test_dual_containing_divisibility_matches_matrix_product():
    # Oracles: H H^dagger = 0 (Hermitian) and H1 H2^T = 0 (CSS), over every
    # divisor of x^n - 1, including g = 1 and g = x^n - 1.
    for n in range(1, 22, 2):
        for code in _divisor_codes(n, GF4):
            assert hermitian_dual_containing(code) == product_is_zero(
                code.H, code.H.conj_transpose()
            ), code
        for code in _divisor_codes(n, GF2):
            assert css_dual_containing(code, code) == product_is_zero(
                code.H, code.H.transpose()
            ), code
    for n in range(1, 16, 2):
        codes = _divisor_codes(n, GF2)
        for c1, c2 in product(codes, repeat=2):
            admitted = css_dual_containing(c1, c2)
            assert admitted == product_is_zero(c1.H, c2.H.transpose()), (c1, c2)
            assert admitted == css_dual_containing(c2, c1), (c1, c2)


def test_dual_membership():
    # rows of H span the Euclidean dual; their conjugates the Hermitian dual
    for row in QUAD5.H.data:
        assert in_euclidean_dual(QUAD5, row)
        assert in_hermitian_dual(QUAD5, tuple(GF4.conj(v) for v in row))
    assert contains(QUAD5, (0, 0, 1, 2, 1))
    assert not in_hermitian_dual(QUAD5, (0, 0, 1, 2, 1))


def _classical_limit_oracle(code, cap):
    """Exhaustive: largest b with all bursts of length <= b in distinct cosets."""
    best = 0
    for b in range(1, cap + 1):
        seen = {}
        ok = True
        for length in range(0, b + 1):
            patterns = (
                [()]
                if length == 0
                else [
                    (first,) + mid + (last,)
                    for first in range(1, code.field.q)
                    for last in range(1, code.field.q)
                    for mid in product(range(code.field.q), repeat=max(0, length - 2))
                ]
                if length >= 2
                else [(c,) for c in range(1, code.field.q)]
            )
            for start in range(0, code.n - length + 1):
                for pat in patterns:
                    v = [0] * code.n
                    for i, c in enumerate(pat):
                        v[start + i] = c
                    s = syndrome(code, tuple(v))
                    prev = seen.get(s)
                    if prev is not None and prev != tuple(v):
                        ok = False
                        break
                    seen[s] = tuple(v)
                if not ok:
                    break
                if length == 0:
                    break
            if not ok:
                break
        if not ok:
            break
        best = b
    return best


def test_classical_burst_limit_hamming():
    assert classical_burst_limit(HAMMING) == 1
    assert classical_burst_limit(HAMMING) == _classical_limit_oracle(HAMMING, 3)


@pytest.mark.parametrize("n", (3, 5, 7, 9))
def test_classical_burst_limit_repetition(n):
    code = code_from_generator(n, P(GF2, *([1] * n)))
    assert classical_burst_limit(code) == (n - 1) // 2
    assert classical_burst_limit(code) == _classical_limit_oracle(code, n // 2 + 1)


def test_classical_burst_limit_15_9():
    code = code_from_generator(15, Polynomial.make(GF4, (1, 0, 0, 2, 0, 0, 1)))
    assert classical_burst_limit(code) >= 3


def test_classical_reiger_bound():
    for code in _code_family():
        assert classical_burst_limit(code) <= code.r // 2


def test_shortened_check_matrix():
    m = shortened_check_matrix(HAMMING, 1)
    assert (m.rows, m.cols) == (2, 6)
    assert m.data == tuple(row[:6] for row in HAMMING.H.data[:2])
    with pytest.raises(ValueError):
        shortened_check_matrix(HAMMING, 4)


def test_burst_pattern():
    b = BurstPattern(2, (1, 0, 3))
    assert b.length == 3
    assert b.as_vector(6) == (0, 0, 1, 0, 3, 0)
    assert BurstPattern.from_vector((0, 0, 1, 0, 3, 0)) == b
    assert BurstPattern(0, ()).as_vector(4) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        BurstPattern(0, (0, 1))
    with pytest.raises(ValueError):
        BurstPattern(4, (1, 1)).as_vector(5)
    assert burst_length((0, 1, 0, 2, 0)) == 3
    assert burst_length((0,) * 5) == 0

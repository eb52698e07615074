import random
from itertools import product

import pytest

from qburst.galois import GF2, GF4, OMEGA
from qburst.matgf import MatrixGF, product_is_zero, rank
from qburst.polyring import Polynomial, divisor_generators
from qburst.cycliccode import (
    CyclicCode,
    burst_length,
    code_from_generator,
    contains,
    css_dual_containing,
    dual_containing_codes,
    hermitian_dual_containing,
    in_euclidean_dual,
    syndrome,
    vector_poly,
)
from qburst.qccburst import brute_force_limit, classical_burst_limit, qcc_burst_limit, window_pairs


def P(field, *coeffs):
    return Polynomial.make(field, coeffs)


# the digits i = k (mod 3) of a packed GF(4) polynomial of degree < 66,
# and the low bit of every digit
_DIGITS_MOD_3 = [sum(3 << 2 * i for i in range(k, 66, 3)) for k in range(3)]
_LOW_BITS = int("01" * 66, 2)


def twisted(g):
    """g(wx) / w^r over GF(4), r = deg g < 66: the digits i = k (mod 3) of
    g times w^(k - r).  w (a0 + a1 w) = a1 + (a0 + a1) w, as w^2 = w + 1,
    so one step of w moves every digit's high bit down and XORs both bits
    into the high bit."""
    out = 0
    for k, digits in enumerate(_DIGITS_MOD_3):
        part = g.bits & digits
        for _ in range((k - g.degree) % 3):
            low, high = part & _LOW_BITS, part >> 1 & _LOW_BITS
            part = high | (low ^ high) << 1
        out |= part
    return Polynomial(GF4, out)


HAMMING = code_from_generator(7, P(GF2, 1, 1, 0, 1))
QUAD5 = code_from_generator(5, P(GF4, 1, OMEGA, 1))


def test_code_from_generator_examples():
    assert (HAMMING.k, HAMMING.r) == (4, 3)
    assert HAMMING.h == P(GF2, 1, 1, 1, 0, 1)
    assert (QUAD5.k, QUAD5.r) == (3, 2)
    with pytest.raises(ValueError, match="does not divide"):
        code_from_generator(7, P(GF2, 1, 0, 1))  # x^2 + 1
    for n in (0, 65537, 10**20):
        with pytest.raises(ValueError, match=r"length must be in 1\.\.65535"):
            code_from_generator(n, P(GF2, 1, 1))


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
        last = tuple(row[-1] for row in code.H.data)
        assert all(v == 0 for v in last[:-1]) and last[-1] != 0
        for i in range(code.r):
            assert code.H.data[i][code.n - code.r + i] != 0
            for j in range(i + 1, code.r):
                assert code.H.data[i][code.n - code.r + j] == 0


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
            zero_h = product_is_zero(code.H, MatrixGF.make(code.field, [[x] for x in v]))
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


@pytest.mark.parametrize("field", [GF4, GF2], ids=["gf4", "gf2"])
def test_dual_containing_codes_match_divisibility_oracle(field):
    # the partner-pair enumerator yields exactly the divisors 1 <= deg g < n
    # that the divisibility test admits, each once, including lengths whose
    # admissible set is empty (GF(2) n = 1, 3, 5), and h = (x^n - 1) / g.
    # The divisibility test and the enumerator rest on the same partner
    # map, so H H^dagger = 0 (H H^T = 0) is checked beside it.
    def admits(code):
        if field is GF4:
            admitted = hermitian_dual_containing(code)
            assert admitted == product_is_zero(code.H, code.H.conj_transpose()), code
        else:
            admitted = css_dual_containing(code, code)
            assert admitted == product_is_zero(code.H, code.H.transpose()), code
        return admitted

    sizes = {}
    for n in range(1, 34, 2):
        xn1 = Polynomial.xn_minus_1(field, n)
        built = [code for code, _ in dual_containing_codes(n, field)]
        for code in built:
            assert (code.n, code.field) == (n, field), code
            assert code.g * code.h == xn1, code
        generators = [code.g for code in built]
        assert len(set(generators)) == len(generators), n
        oracle = {
            g for g in divisor_generators(n, field, (1, n - 1))
            if admits(code_from_generator(n, g))
        }
        assert set(generators) == oracle, n
        sizes[n] = len(built)
    if field is GF2:
        assert sizes[1] == sizes[3] == sizes[5] == 0 and sizes[7] == 2
    else:
        assert sizes[1] == 0 and sizes[5] == 2


def test_orbit_keys_match_polynomial_orbits():
    # oracle for the mask keys: codes share a key exactly when they share
    # the least `.bits` of g, conj(g), rev(g) = monic(reciprocal(g)) and
    # conj(rev(g)), and over GF(4) with 3 | n of the twists p(wx) / w^r
    # and p(w^2 x) / w^2r of those four, computed on the polynomials; and
    # the construction of the field admits every code.  Every odd n <= 65
    # in both fields.
    def polynomial_key(g, n):
        rev = g.reciprocal().monic()
        images = [g, g.conjugate(), rev, rev.conjugate()]
        if g.field is GF4 and n % 3 == 0:
            images += [twisted(p) for p in images]
            images += [twisted(p) for p in images[4:]]
        return min(p.bits for p in images)

    codes = 0
    for field in (GF4, GF2):
        for n in range(1, 66, 2):
            by_key, by_polynomial = {}, {}
            for code, key in dual_containing_codes(n, field):
                if field is GF4:
                    assert hermitian_dual_containing(code), code
                else:
                    assert css_dual_containing(code, code), code
                by_key.setdefault(key, []).append(code.g.bits)
                by_polynomial.setdefault(polynomial_key(code.g, n), []).append(code.g.bits)
                codes += 1
            assert sorted(by_key.values()) == sorted(by_polynomial.values()), (field, n)
    assert codes == 21960


def test_twist_keeps_every_limit():
    # the law behind the twist orbits: over GF(4) with 3 | n, x -> wx maps
    # every admissible code to an admissible one with the same K, L, ell0
    # and flags, by the shift sweep at every such n <= 45, and by the
    # exhaustive oracle (bursts up to 5 long) at n <= 21
    codes = 0
    for n in range(3, 46, 6):
        for tree_code, _ in dual_containing_codes(n, GF4):
            code = code_from_generator(n, tree_code.g)
            twin = code_from_generator(n, twisted(code.g))
            assert hermitian_dual_containing(twin), twin
            a, b = qcc_burst_limit(code, "hermitian"), qcc_burst_limit(twin, "hermitian")
            assert (a.K, a.L, a.ell0, a.flags) == (b.K, b.L, b.ell0, b.flags), code
            if n <= 21:
                cap = min(code.r // 2, 5)
                assert brute_force_limit(code, cap=cap) == brute_force_limit(twin, cap=cap), code
            codes += 1
    assert codes == 320


@pytest.mark.parametrize("field", [GF4, GF2], ids=["gf4", "gf2"])
def test_tree_stabilizer_is_the_conjugated_dual_generator(field):
    # the s that the enumeration tree grows on the factor mask, stored in
    # each code it yields, is conj(dual_g) computed from h: every odd n <= 45
    codes = 0
    for n in range(1, 46, 2):
        for code, _ in dual_containing_codes(n, field):
            assert vars(code)["stabilizer"] == code.dual_g.conjugate(), code
            assert code.stabilizer is vars(code)["stabilizer"], code
            codes += 1
    assert codes == {GF4: 462, GF2: 58}[field]


def test_dual_membership():
    # rows of H span the Euclidean dual; their conjugates the Hermitian
    # dual, which the stabilizer generator generates
    s = QUAD5.stabilizer
    for row in QUAD5.H.data:
        assert in_euclidean_dual(QUAD5, row)
        assert (vector_poly(QUAD5, [GF4.conj(v) for v in row]) % s).is_zero
    assert contains(QUAD5, (0, 0, 1, 2, 1))
    assert not (vector_poly(QUAD5, (0, 0, 1, 2, 1)) % s).is_zero


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
    # a width-t window has the r - t rows and t columns of the t-shortened
    # H, so its rank plus its free columns is t, and t = r leaves no rows
    for t in range(1, HAMMING.r + 1):
        for start in range(HAMMING.n - 2 * t + 1):
            rank, pairs = window_pairs(HAMMING, t, start)
            assert rank + len(pairs) == t and rank <= HAMMING.r - t
    # rows 0-1 of H are (1,0,1,1,1,0,0) and (0,1,0,1,1,1,0); the width-2
    # window at 0 keeps row 0 alone, so it has rank 1, not 2
    assert HAMMING.H.data[:2] == ((1, 0, 1, 1, 1, 0, 0), (0, 1, 0, 1, 1, 1, 0))
    assert window_pairs(HAMMING, 2, 0)[0] == 1
    with pytest.raises(ValueError):
        window_pairs(HAMMING, 4, 0)


def test_burst_pattern():
    assert burst_length((0, 0, 1, 0, 3, 0)) == 3
    assert burst_length((0, 1, 0, 2, 0)) == 3
    assert burst_length((0,) * 5) == 0

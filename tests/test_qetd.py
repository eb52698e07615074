import random

import pytest

from qburst.galois import GF2, GF4
from qburst.polyring import Polynomial, divisor_generators
from qburst.cycliccode import (
    BurstPattern,
    _burst_patterns,
    burst_count,
    code_from_generator,
    in_euclidean_dual,
    in_hermitian_dual,
    syndrome,
)
from qburst.qccburst import NotDualContaining, degeneracy_check
from qburst.qetd import (
    QetdStats,
    _position_syndrome_tables,
    _stabilizer,
    burst_census,
    css_decode,
    trap_decode,
)
from qburst.searchcli import parse_generator

STEANE = code_from_generator(7, parse_generator("(1^3 1^1 1^0)", GF2))
QUAD5 = code_from_generator(5, parse_generator("(1^2 2^1 1^0)", GF4))
CODE13 = code_from_generator(13, parse_generator("(1^6 2^5 3^3 2^1 1^0)", GF4))


def vec_syndrome_poly(code, e):
    return Polynomial.make(code.field, syndrome(code, e))


def test_decode_examples():
    # burst already in the low-order positions reads off directly
    assert trap_decode(Polynomial.make(GF2, (1,)), STEANE) == (1, 0, 0, 0, 0, 0, 0)
    # syndrome of x^6 is x^2 + 1; trapping must recover the shifted monomial
    assert trap_decode(Polynomial.make(GF2, (1, 0, 1)), STEANE) == (0,) * 6 + (1,)
    assert trap_decode(Polynomial.zero(GF2), STEANE) == (0,) * 7


def test_trap_state_invariants():
    from qburst.qetd import _trap_search

    s = Polynomial.make(GF2, (1, 0, 1))
    state = _trap_search(s, STEANE)
    assert state.z == STEANE.r - state.s
    assert 0 <= state.v < STEANE.n
    assert state.z == 1 and state.v == 3  # single error trapped after 3 shifts


def test_decode_validates_input():
    with pytest.raises(ValueError):
        trap_decode(Polynomial.make(GF2, (0, 0, 0, 1)), STEANE)  # degree r
    with pytest.raises(ValueError):
        trap_decode(Polynomial.make(GF4, (1,)), STEANE)


def test_decode_syndrome_consistency():
    rng = random.Random(17)
    for code in (STEANE, QUAD5, CODE13):
        q = code.field.q
        for _ in range(300):
            length = rng.randrange(1, code.r + 1)
            start = rng.randrange(0, code.n - length + 1)
            coeffs = [rng.randrange(1, q)] + [
                rng.randrange(q) for _ in range(length - 2)
            ]
            if length > 1:
                coeffs.append(rng.randrange(1, q))
            e = BurstPattern(start, tuple(coeffs)).as_vector(code.n)
            s = vec_syndrome_poly(code, e)
            ehat = trap_decode(s, code)
            assert syndrome(code, ehat) == syndrome(code, e)


def test_low_order_bursts_read_off_in_syndrome():
    rng = random.Random(19)
    for code in (STEANE, CODE13):
        for _ in range(200):
            length = rng.randrange(1, code.r + 1)
            start = rng.randrange(0, code.r - length + 1)
            coeffs = [rng.randrange(1, code.field.q)] + [
                rng.randrange(code.field.q) for _ in range(length - 1)
            ]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            e = BurstPattern(start, tuple(coeffs)).as_vector(code.n)
            assert syndrome(code, e) == e[: code.r]


def test_classify():
    # a decode is exact (ehat == e), degenerate, or a failure
    zero = (0,) * 5
    stab = tuple(GF4.conj(v) for v in QUAD5.H.data[0])
    assert degeneracy_check(QUAD5, zero, zero)
    assert stab != zero and degeneracy_check(QUAD5, stab, zero)
    # logical operator: codeword outside the Hermitian dual
    assert not degeneracy_check(QUAD5, (0, 0, 1, 2, 1), zero)
    with pytest.raises(ValueError):
        degeneracy_check(QUAD5, (1, 0, 0, 0, 0), zero)


def test_classify_css_mode():
    zero = (0,) * 7
    dual_row = STEANE.H.data[0]
    assert dual_row != zero and degeneracy_check(STEANE, dual_row, zero, mode="css")


def test_css_decode():
    zero = Polynomial.zero(GF2)
    # pure bit-flip burst leaves the phase component silent
    e = (1, 1, 0, 0, 0, 0, 0)
    sx = vec_syndrome_poly(STEANE, e)
    out = css_decode(sx, zero, STEANE, STEANE)
    assert all(d in (0, 1) for d in out)
    assert css_decode(zero, zero, STEANE, STEANE) == (0,) * 7
    # combined flip at one position decodes to the same position in both parts
    y = [0] * 7
    y[3] = 1
    s = vec_syndrome_poly(STEANE, tuple(y))
    out = css_decode(s, s, STEANE, STEANE)
    assert out == (0, 0, 0, 3, 0, 0, 0)


def test_census_size_formula():
    assert burst_count(5, 4, 2) == 51
    assert burst_count(7, 4, 3) == 255
    assert burst_count(13, 4, 6) == 25599
    assert burst_count(17, 4, 8) == 507903
    assert burst_count(23, 4, 11) == 41943039
    for q in (2, 4):
        for n in (1, 4, 7):
            for lmax in range(0, n + 3):
                patterns = list(_burst_patterns(q, lmax))
                assert len(set(patterns)) == len(patterns)
                placed = sum(max(n - len(p) + 1, 0) for p in patterns)
                assert placed == burst_count(n, q, lmax), (q, n, lmax)


def test_census_small_and_counts():
    stats = burst_census(QUAD5, "hermitian")
    assert (stats.total, stats.decoded, stats.exact) == (51, 15, 15)
    assert stats.lmax == 2
    assert stats.exact <= stats.decoded <= stats.total
    assert stats.exact_ratio == pytest.approx(15 / 51)
    assert stats.decoded_ratio == pytest.approx(15 / 51)
    assert stats.degeneracy_gain == pytest.approx(1.0)


def test_census_respects_lmax():
    stats = burst_census(QUAD5, "hermitian", lmax=1)
    assert stats.total == 15
    assert stats.exact == 15  # single errors decode exactly


def test_census_rejects_lmax_out_of_range():
    for lmax in (-1, 0, QUAD5.n + 1):
        with pytest.raises(ValueError, match="lmax"):
            burst_census(QUAD5, "hermitian", lmax=lmax)
    assert burst_census(QUAD5, "hermitian", lmax=QUAD5.n).total == burst_count(5, 4, 5)


def test_census_rejects_codes_without_quantum_construction():
    full = code_from_generator(5, parse_generator("(1^5 1^0)", GF4))  # [[5,-5]]
    with pytest.raises(NotDualContaining):
        burst_census(full, "hermitian", lmax=1)
    parity = code_from_generator(3, parse_generator("(1^1 1^0)", GF2))
    with pytest.raises(NotDualContaining):
        burst_census(parity, "css", lmax=1)
    trivial = code_from_generator(5, parse_generator("(1^0)", GF4))  # r = 0
    with pytest.raises(ValueError, match="degree"):
        burst_census(trivial, "hermitian", lmax=1)


def _stabilizer_member(code, mode, vec):
    """Dual membership of a Pauli vector: Hermitian dual of a GF(4) code, or
    both bit planes (X = bit 0, Z = bit 1) in the binary Euclidean dual."""
    if mode == "hermitian":
        return in_hermitian_dual(code, vec)
    return in_euclidean_dual(code, tuple(d & 1 for d in vec)) and in_euclidean_dual(
        code, tuple(d >> 1 for d in vec)
    )


def _packed_syndrome(tables, vec):
    acc = 0
    for pos, d in enumerate(vec):
        acc ^= tables[pos][d]
    return acc


def test_stabilizer_syndrome_is_dual_membership():
    # the census calls ehat - e degenerate iff its packed syndrome modulo the
    # stabilizer generator is 0; that must be membership in the dual
    rng = random.Random(41)
    for field, mode in ((GF4, "hermitian"), (GF2, "css")):
        for n in range(3, 16, 2):
            for g in divisor_generators(n, field, (1, n - 1)):
                code = code_from_generator(n, g)
                tables = _position_syndrome_tables(_stabilizer(code, mode))
                if mode == "hermitian":
                    rows = [tuple(GF4.conj(v) for v in row) for row in code.H.data]
                else:
                    # X rows as digit 1, Z rows as digit 2
                    rows = list(code.H.data) + [tuple(2 * v for v in row) for row in code.H.data]
                for trial in range(20):
                    if trial % 2:
                        vec = tuple(rng.randrange(4) for _ in range(n))
                    else:
                        vec = [0] * n
                        for row in rows:
                            c = rng.randrange(4 if mode == "hermitian" else 2)
                            vec = [a ^ GF4.mul(c, b) for a, b in zip(vec, row)]
                        vec = tuple(vec)
                    member = _stabilizer_member(code, mode, vec)
                    assert (_packed_syndrome(tables, vec) == 0) == member, (code, mode, vec)
                    assert member or trial % 2, (code, mode, vec)


def _census_oracle(code, mode, lmax):
    """(N, N0, ND) by decoding each burst with the polynomial decoder on the
    GF(4)-lifted code and judging ehat - e by dual membership.  The decode
    is a function of the syndrome, so it is computed once per syndrome."""
    lifted = code_from_generator(code.n, Polynomial.make(GF4, code.g.coeffs))
    decodes = {}
    total = exact = decoded = 0
    for pattern in _burst_patterns(4, lmax):
        for start in range(code.n - len(pattern) + 1):
            e = BurstPattern(start, pattern).as_vector(code.n)
            s = syndrome(lifted, e)
            if s not in decodes:
                decodes[s] = trap_decode(Polynomial.make(GF4, s), lifted)
            ehat = decodes[s]
            total += 1
            if ehat == e:
                exact += 1
                decoded += 1
            elif _stabilizer_member(code, mode, tuple(a ^ b for a, b in zip(ehat, e))):
                decoded += 1
    return total, exact, decoded


def test_census_matches_polynomial_oracle():
    checked = 0
    for field, mode in ((GF4, "hermitian"), (GF2, "css")):
        for n in (3, 5, 7, 9, 11, 13):
            for g in divisor_generators(n, field, (1, n - 1)):
                code = code_from_generator(n, g)
                try:
                    stats = burst_census(code, mode, lmax=None if n <= 9 else 3)
                except NotDualContaining:
                    continue
                got = (stats.total, stats.exact, stats.decoded)
                assert got == _census_oracle(code, mode, stats.lmax), (code, mode)
                checked += 1
    assert checked == 8


def test_census_codeword_bursts_match_oracle():
    # at lmax = n some bursts are codewords: each decodes to 0 at every
    # start and is degenerate exactly when it is a stabilizer
    checked = 0
    for field, mode in ((GF4, "hermitian"), (GF2, "css")):
        for n in (3, 5, 7):
            for g in divisor_generators(n, field, (1, n - 1)):
                code = code_from_generator(n, g)
                try:
                    stats = burst_census(code, mode, lmax=n)
                except NotDualContaining:
                    continue
                got = (stats.total, stats.exact, stats.decoded)
                assert got == _census_oracle(code, mode, n), (code, mode)
                checked += 1
    assert checked == 6
    stats = burst_census(QUAD5, "hermitian", lmax=5)
    assert (stats.decoded, stats.exact, stats.total) == (255, 15, 1023)
    stats = burst_census(STEANE, "css", lmax=7)
    assert (stats.decoded, stats.exact, stats.total) == (4095, 63, 16383)


@pytest.mark.parametrize(
    "n, field, mode, gen, expected",
    [
        (23, GF2, "css", "(1^11 1^9 1^7 1^6 1^5 1^1 1^0)", (209205, 208272, 212991)),
        (25, GF4, "hermitian", "(1^12 2^11 1^10 2^7 3^6 2^5 1^2 2^1 1^0)",
         (236664, 236190, 237567)),
    ],
)
def test_census_counts_at_r11_and_r12(n, field, mode, gen, expected):
    # beyond the oracle's reach; 100 and 26 of the 4096 patterns trap at two
    # tied shifts.  The counts are those of the per-burst census at lmax 7.
    stats = burst_census(code_from_generator(n, parse_generator(gen, field)), mode, lmax=7)
    assert (stats.decoded, stats.exact, stats.total) == expected


def test_census_guard():
    with pytest.raises(ValueError, match="guard"):
        burst_census(CODE13, "hermitian", guard=100)


def test_census_field_checks():
    with pytest.raises(ValueError):
        burst_census(STEANE, "hermitian")
    with pytest.raises(ValueError):
        burst_census(QUAD5, "css")


def test_shift_covariance_within_unique_trap_range():
    # below the nondegenerate limit the trapped representative is unique,
    # so decoding commutes with cyclic shifts that keep the burst linear
    rng = random.Random(29)
    for code, ell0 in ((STEANE, 1), (QUAD5, 1), (CODE13, 3)):
        n = code.n
        for _ in range(300):
            length = rng.randrange(1, ell0 + 1)
            start = rng.randrange(0, n - length + 1)
            coeffs = [rng.randrange(1, code.field.q)]
            for _ in range(length - 2):
                coeffs.append(rng.randrange(code.field.q))
            if length > 1:
                coeffs.append(rng.randrange(1, code.field.q))
            e = list(BurstPattern(start, tuple(coeffs)).as_vector(n))
            shift = rng.randrange(0, n - (start + length) + 1)
            shifted = tuple([0] * shift + e[:-shift] if shift else e)
            dec = trap_decode(vec_syndrome_poly(code, tuple(e)), code)
            dec_shifted = trap_decode(vec_syndrome_poly(code, shifted), code)
            expected = tuple([0] * shift + list(dec[: n - shift]) if shift else dec)
            assert dec_shifted == expected

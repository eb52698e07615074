import random

import pytest

from qburst.galois import GF2, GF4
from qburst.polyring import Polynomial
from qburst.cycliccode import BurstPattern, code_from_generator, syndrome
from qburst.qetd import (
    QetdStats,
    burst_census,
    burst_census_size,
    classify,
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
    zero = (0,) * 5
    stab = tuple(GF4.conj(v) for v in QUAD5.H.data[0])
    assert classify(QUAD5, zero, zero) == "exact"
    assert classify(QUAD5, stab, zero) == "degenerate"
    # logical operator: codeword outside the Hermitian dual
    assert classify(QUAD5, (0, 0, 1, 2, 1), zero) == "failure"
    with pytest.raises(ValueError):
        classify(QUAD5, (1, 0, 0, 0, 0), zero)


def test_classify_css_mode():
    zero = (0,) * 7
    dual_row = STEANE.H.data[0]
    assert classify(STEANE, dual_row, zero, mode="css") == "degenerate"


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
    assert burst_census_size(5, 2) == 51
    assert burst_census_size(7, 3) == 255
    assert burst_census_size(13, 6) == 25599
    assert burst_census_size(17, 8) == 507903
    assert burst_census_size(23, 11) == 41943039


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
    assert burst_census(QUAD5, "hermitian", lmax=QUAD5.n).total == burst_census_size(5, 5)


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

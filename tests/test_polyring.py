import pytest
from hypothesis import given, settings, strategies as st

from qburst.cycliccode import code_from_generator, syndrome
from qburst.galois import GF2, GF4, field_make
from qburst.polyring import (
    Polynomial,
    _euclid_rows,
    cyclotomic_cosets,
    divisor_generators,
    factor_xn_minus_1,
)


def P(field, *coeffs):
    return Polynomial.make(field, coeffs)


def test_divmod_example_gf2():
    q, r = divmod(P(GF2, 1, 1, 0, 1), P(GF2, 1, 1))  # (x^3+x+1) / (x+1)
    assert q == P(GF2, 0, 1, 1)
    assert r == P(GF2, 1)


def test_divmod_self():
    a = P(GF4, 1, 2, 0, 3)
    assert divmod(a, a) == (Polynomial.one(GF4), Polynomial.zero(GF4))


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(P(GF2, 1), Polynomial.zero(GF2))


def test_poly_arith_dispatch():
    a, b = P(GF2, 1, 1), P(GF2, 1)
    assert a + b == P(GF2, 0, 1)
    assert a * b == a
    assert divmod(a, b) == (a, Polynomial.zero(GF2))


GF64 = field_make(6)
FIELDS = (GF2, GF4, GF64)


def coeff_lists(field):
    return st.lists(st.integers(0, field.q - 1), min_size=0, max_size=12)


field_and_two_lists = st.sampled_from(FIELDS).flatmap(
    lambda f: st.tuples(st.just(f), coeff_lists(f), coeff_lists(f))
)


@settings(max_examples=200)
@given(field_and_two_lists)
def test_divmod_reconstructs(drawn):
    field, ac, bc = drawn
    a = Polynomial.make(field, ac)
    b = Polynomial.make(field, bc)
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def _trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@settings(max_examples=200)
@given(field_and_two_lists, st.integers(0, 63))
def test_packed_arithmetic_matches_coefficients(drawn, c):
    # every packed operation against its definition on coefficient tuples
    f, ac, bc = drawn
    c %= f.q
    A, B = Polynomial.make(f, ac), Polynomial.make(f, bc)
    a, b = _trimmed(ac), _trimmed(bc)
    assert A.coeffs == a and A.degree == len(a) - 1
    assert [A.coeff(i) for i in range(-1, len(ac) + 2)] == [0, *a, *[0] * (len(ac) + 2 - len(a))]
    schoolbook = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            schoolbook[i + j] ^= f.mul(x, y)
    assert (A * B).coeffs == _trimmed(schoolbook)
    assert (A + B).coeffs == _trimmed(
        x ^ y for x, y in zip(a + (0,) * len(b), b + (0,) * len(a))
    )
    assert A.scale(c).coeffs == _trimmed(f.mul(c, x) for x in a)
    lead_inv = f.inv(a[-1]) if a else 0
    assert A.monic().coeffs == _trimmed(f.mul(lead_inv, x) for x in a)
    assert A.reciprocal().coeffs == _trimmed(reversed(a))
    if f.m <= 2:
        assert A.conjugate().coeffs == tuple(f.conj(x) for x in a)
    elif not A.is_zero:
        with pytest.raises(ValueError):
            A.conjugate()


@pytest.mark.parametrize("field", FIELDS, ids=["gf2", "gf4", "gf64"])
def test_make_rejects_digits_outside_the_field(field):
    # a digit >= q would spill into the neighbouring packed coefficient
    for bad in (field.q, -1):
        for coeffs in ((bad,), (1, bad), (bad, 0, 1)):
            with pytest.raises(ValueError):
                Polynomial.make(field, coeffs)


def test_scale_and_monic_build_no_multiple_table():
    # over GF(2^16) the table of all q multiples of a long polynomial takes
    # gigabytes; one scaling needs only the m doublings
    f = field_make(16)
    coeffs = [(7 * i + 3) % f.q for i in range(300)] + [f.alpha]
    A = Polynomial.make(f, coeffs)
    c = f.pow(f.alpha, 1000)
    assert A.scale(c).coeffs == tuple(f.mul(c, x) for x in coeffs)
    assert A.monic().coeffs == tuple(f.mul(f.inv(f.alpha), x) for x in coeffs)
    assert A.scale(0).is_zero and A.scale(1) == A
    assert "_multiples" not in vars(A)


@settings(max_examples=200)
@given(field_and_two_lists, st.integers(1, 14))
def test_euclid_rows_are_the_extended_euclidean_rows(drawn, w):
    # each row (t, b) has b = t h (mod g); deg t rises, deg b falls, and
    # consecutive rows have deg t_(i+1) + deg b_i = deg g; the rows stop
    # once deg t reaches w, or after a row with b = 0 (g and h not coprime)
    field, gc, hc = drawn
    g = Polynomial.make(field, gc + [1])
    h = Polynomial.make(field, hc) % g
    rows = [
        (Polynomial(field, t), Polynomial(field, b))
        for t, b in _euclid_rows(field, g.bits, h.bits, w)
    ]
    assert rows[0] == (Polynomial.one(field), h)
    for t, b in rows:
        assert ((t * h - b) % g).is_zero and t.degree < w
    for (t, b), (t2, b2) in zip(rows, rows[1:]):
        assert t2.degree > t.degree and b2.degree < b.degree
        assert t2.degree + b.degree == g.degree
    t, b = rows[-1]
    if not b.is_zero:  # the next row's t has degree deg g - deg b
        assert g.degree - b.degree >= w


def test_syndrome_rejects_digit_outside_gf4():
    code = code_from_generator(5, P(GF4, 1, 2, 1))
    with pytest.raises(ValueError):
        syndrome(code, (4, 0, 0, 0, 0))


def test_cyclotomic_coset_examples():
    assert cyclotomic_cosets(7, 2) == [[0], [1, 2, 4], [3, 5, 6]]
    assert cyclotomic_cosets(5, 4) == [[0], [1, 4], [2, 3]]
    assert cyclotomic_cosets(3, 4) == [[0], [1], [2]]
    with pytest.raises(ValueError):
        cyclotomic_cosets(6, 2)


def test_cosets_partition():
    for n in (9, 15, 21):
        cosets = cyclotomic_cosets(n, 4)
        flat = sorted(i for c in cosets for i in c)
        assert flat == list(range(n))


def test_factor_example_gf2():
    factors = {f.coeffs for f in factor_xn_minus_1(7, GF2)}
    assert factors == {(1, 1), (1, 1, 0, 1), (1, 0, 1, 1)}


def test_factor_example_gf4():
    factors = factor_xn_minus_1(5, GF4)
    assert sorted(f.degree for f in factors) == [1, 2, 2]
    assert (1, 2, 1) in {f.coeffs for f in factors}  # x^2 + w x + 1


def test_factor_length_one():
    assert [f.coeffs for f in factor_xn_minus_1(1, GF2)] == [(1, 1)]


@pytest.mark.parametrize("field", [GF2, GF4], ids=["gf2", "gf4"])
def test_factor_product_reconstructs(field):
    # Covers lengths whose x^n - 1 has factors of high degree, such as
    # n = 53, 59 and 61 (degrees 52, 58 and 60 over GF(2)).
    for n in range(1, 130, 2):
        factors = factor_xn_minus_1(n, field)
        assert sum(f.degree for f in factors) == n
        prod = Polynomial.one(field)
        for f in factors:
            assert f.is_monic
            prod = prod * f
        assert prod == Polynomial.xn_minus_1(field, n)
        sizes = sorted(len(c) for c in cyclotomic_cosets(n, field.q))
        assert sizes == sorted(f.degree for f in factors)


def test_factor_big_splitting_field():
    # order of 4 mod 23 is 11, so the splitting field is GF(2^22)
    factors = factor_xn_minus_1(23, GF4)
    assert sum(f.degree for f in factors) == 23
    prod = Polynomial.one(GF4)
    for f in factors:
        prod = prod * f
    assert prod == Polynomial.xn_minus_1(GF4, 23)


def test_divisor_generators_examples():
    cubics = {g.coeffs for g in divisor_generators(7, GF2, (3, 3))}
    assert cubics == {(1, 1, 0, 1), (1, 0, 1, 1)}
    quads = list(divisor_generators(5, GF4, (2, 2)))
    assert sorted(g.coeffs for g in quads) == [(1, 2, 1), (1, 3, 1)]
    assert [g.coeffs for g in divisor_generators(7, GF2, (0, 0))] == [(1,)]


def test_divisor_generators_count_and_determinism():
    for n, field in ((15, GF2), (9, GF4)):
        all1 = list(divisor_generators(n, field))
        all2 = list(divisor_generators(n, field))
        assert all1 == all2
        nfactors = len(factor_xn_minus_1(n, field))
        assert len(all1) == 2 ** nfactors
        assert len({g.coeffs for g in all1}) == len(all1)
        for g in all1:
            assert (Polynomial.xn_minus_1(field, n) % g).is_zero


def test_reciprocal_and_conjugate():
    p = P(GF4, 1, 2, 0, 3)
    assert p.reciprocal().coeffs == (3, 0, 2, 1)
    assert p.conjugate().coeffs == (1, 3, 0, 2)

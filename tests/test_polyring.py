import hashlib
from itertools import islice
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from qburst.cycliccode import code_from_generator, syndrome
from qburst.galois import GF2, GF4, field_make
from qburst.polyring import (
    Polynomial,
    _monic_gcd,
    _shift_bases,
    _x_powers,
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


def test_polynomials_are_values():
    # equal field and bits: equal and equally hashed; a polynomial equals
    # nothing of another class, not even the tuple of its field and bits;
    # the cached properties are kept in vars()
    a, b = Polynomial.make(GF4, [1, 2, 3]), Polynomial(GF4, 0b111001)
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Polynomial(GF2, a.bits) and a != Polynomial(GF4, a.bits ^ 1)
    for other in ((GF4, a.bits), a.bits, code_from_generator(1, Polynomial.one(GF4))):
        assert a != other and a.__eq__(other) is NotImplemented
    assert "coeffs" not in vars(b)
    assert b.coeffs == (1, 2, 3) and vars(b)["coeffs"] is b.coeffs
    a * b
    assert "_multiples" in vars(b) and "_multiples" not in vars(a)


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


monic_g = st.integers(1, 6).flatmap(
    lambda m: st.tuples(
        st.just(field_make(m)), st.lists(st.integers(0, (1 << m) - 1), max_size=10)
    )
)


@settings(max_examples=200)
@given(monic_g, st.integers(0, 2))
def test_shift_bases_are_weak_popov_bases_of_the_shift_modules(drawn, start):
    # both rows lie in M_T = {(a, b) : x^T a = b (mod g)}; their pivots (b
    # when deg b >= deg a) differ, so the row degrees sum to deg g; and
    # a1 b2 - a2 b1 is a nonzero scalar times g, so the rows span M_T itself
    field, gc = drawn
    g = Polynomial.make(field, gc + [1])
    shifts = 2 * g.degree + 3
    bases = [
        [(Polynomial(field, a), Polynomial(field, b)) for a, b in rows]
        for rows in islice(_shift_bases(field, g.bits, 0), shifts)
    ]
    for T, ((a1, b1), (a2, b2)) in enumerate(bases):
        for a, b in ((a1, b1), (a2, b2)):
            assert ((Polynomial.x_pow(field, T) * a - b) % g).is_zero, T
        assert (b1.degree >= a1.degree) != (b2.degree >= a2.degree), T
        degree = max(a1.degree, b1.degree) + max(a2.degree, b2.degree)
        assert degree == g.degree, T
        det = a1 * b2 - a2 * b1
        assert not det.is_zero and det.monic() == g, T
    later = list(islice(_shift_bases(field, g.bits, start), shifts - start))
    assert later == [
        tuple((a.bits, b.bits) for a, b in rows) for rows in bases[start:]
    ]


_GF64 = field_make(6)


@pytest.mark.parametrize(
    "g",
    [
        P(GF2, 1, 1),
        P(GF2, 1, 1, 0, 1),
        P(GF4, 2, 1),
        P(GF4, 2, 1, 1),
        P(_GF64, _GF64.alpha, 1),
        P(_GF64, _GF64.pow(_GF64.alpha, 3), 1) * P(_GF64, _GF64.pow(_GF64.alpha, 60), 1),
    ],
    ids=["gf2-deg1", "gf2-deg3", "gf4-deg1", "gf4-deg2", "gf64-deg1", "gf64-deg2"],
)
def test_x_powers_are_the_remainders_of_x_pow(g):
    # g(0) != 0, so the powers of x come round to 1: run twice past that period
    x = Polynomial.x_pow(g.field, 1)
    period, power = 1, x % g
    while power != Polynomial.one(g.field):
        period, power = period + 1, power * x % g
    count = 2 * period + 2
    expected = [(Polynomial.x_pow(g.field, j) % g).bits for j in range(count)]
    assert list(islice(_x_powers(g), count)) == expected


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


def _is_complete_factorization(n, field, factors):
    """The irreducibility oracle: x^n - 1 has one irreducible factor per
    cyclotomic coset, so distinct monic factors of degree >= 1 whose product
    is x^n - 1, as many as the cosets, are exactly those factors."""
    cosets = cyclotomic_cosets(n, field.q)
    return (
        len(factors) == len(set(factors)) == len(cosets)
        and all(f.is_monic and f.degree >= 1 for f in factors)
        and prod(factors, start=Polynomial.one(field)) == Polynomial.xn_minus_1(field, n)
        and sorted(map(len, cosets)) == sorted(f.degree for f in factors)
    )


@pytest.mark.parametrize("field", [GF2, GF4], ids=["gf2", "gf4"])
def test_factor_product_reconstructs(field):
    # Covers lengths whose x^n - 1 has factors of high degree, such as
    # n = 53, 59 and 61 (degrees 52, 58 and 60 over GF(2)).
    for n in range(1, 256, 2):
        assert _is_complete_factorization(n, field, factor_xn_minus_1(n, field)), n


@pytest.mark.parametrize(
    "field,digest",
    [(GF2, "5233ab076fc73fd6df5cfe8f9b6e5fec7ff9ff79939b41d1f4d52fa52bd64be3"),
     (GF4, "56193fbb088e6e2f287d3fcc36971ba03fe3ec5335a890c8edc0631d03441e86")],
    ids=["gf2", "gf4"],
)
def test_factor_lists_are_pinned(field, digest):
    # the sorted factor lists of every odd n <= 255, byte for byte, as the
    # splitting by long division of the coset indicators gave them: the
    # order of `divisor_generators` and of every search rests on them
    text = "\n".join(
        f"{n}: " + " ".join(str(p.bits) for p in factor_xn_minus_1(n, field))
        for n in range(1, 256, 2)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@settings(max_examples=200)
@given(field_and_two_lists)
def test_packed_gcd_matches_the_remainder_loop(drawn):
    field, ac, bc = drawn
    a, b = Polynomial.make(field, ac), Polynomial.make(field, bc)
    want_a, want_b = a, b
    while not want_b.is_zero:
        want_a, want_b = want_b, want_a % want_b
    assert _monic_gcd(a, b) == want_a.monic()


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

import random

import pytest
from hypothesis import given, strategies as st

from qburst.galois import (
    GF2,
    GF4,
    OMEGA,
    OMEGA_BAR,
    field_make,
    self_dual_basis,
)


def test_default_fields():
    assert GF2.q == 2 and GF4.q == 4
    f8 = field_make(3)
    assert f8.q == 8 and f8.modulus == 0b1011


def test_gf4_defining_relation():
    # w^2 = w + 1 under x^2 + x + 1
    assert GF4.mul(OMEGA, OMEGA) == OMEGA_BAR
    assert OMEGA ^ OMEGA_BAR == 1
    assert GF4.mul(OMEGA, OMEGA_BAR) == 1


def _shift_mul(a, b, modulus, m):
    """a * b modulo the modulus, by shift and reduce."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> m & 1:
            a ^= modulus
    return out


def test_every_degree_builds_a_field():
    # alpha has order q - 1, which only a field allows: modulo a reducible
    # modulus some nonzero residues are zero divisors.  The powers are
    # multiplied out apart from the field's exp/log tables.
    for m in range(1, 17):
        f = field_make(m)
        seen, v = set(), 1
        for i in range(f.q - 1):
            assert f.pow(f.alpha, i) == v
            seen.add(v)
            v = _shift_mul(v, f.alpha, f.modulus, m)
        assert v == 1 and len(seen) == f.q - 1 and 0 not in seen, m


def test_inverse_law_all_elements():
    for m in (1, 2, 3, 4, 6):
        f = field_make(m)
        for a in range(1, f.q):
            assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        GF4.inv(0)


def test_field_axioms_bulk():
    # commutativity / associativity / distributivity on >= 10^4 random triples
    rng = random.Random(20240811)
    fields = [field_make(m) for m in (2, 3, 4, 6, 8)]
    for _ in range(10_500):
        f = rng.choice(fields)
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert (a ^ b) == (b ^ a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_frobenius_additivity():
    rng = random.Random(7)
    for m in (2, 3, 5, 8):
        f = field_make(m)
        for _ in range(500):
            a, b = rng.randrange(f.q), rng.randrange(f.q)
            assert f.mul(a ^ b, a ^ b) == f.mul(a, a) ^ f.mul(b, b)


def test_conjugation_gf4():
    assert GF4.conj(OMEGA) == OMEGA_BAR
    assert GF4.conj(1) == 1
    assert GF4.conj(0) == 0
    for a in range(4):
        assert GF4.conj(GF4.conj(a)) == a
        for b in range(4):
            assert GF4.conj(GF4.mul(a, b)) == GF4.mul(GF4.conj(a), GF4.conj(b))
            assert GF4.conj(a ^ b) == GF4.conj(a) ^ GF4.conj(b)
    assert GF2.conj(1) == 1
    with pytest.raises(ValueError):
        field_make(3).conj(2)


def test_trace_examples():
    assert GF4.trace(OMEGA) == 1
    assert GF4.trace(1) == 0
    f8 = field_make(3)
    traces = [f8.trace(a) for a in range(8)]
    assert sorted(traces).count(0) == 4 and sorted(traces).count(1) == 4
    # additivity
    rng = random.Random(3)
    f16 = field_make(4)
    for _ in range(200):
        a, b = rng.randrange(16), rng.randrange(16)
        assert f16.trace(a ^ b) == f16.trace(a) ^ f16.trace(b)


@given(st.integers(1, 15), st.integers(0, 60), st.integers(0, 60))
def test_power_law(a, i, j):
    f = field_make(4)
    a %= f.q
    if a == 0:
        return
    assert f.mul(f.pow(a, i), f.pow(a, j)) == f.pow(a, i + j)


def test_self_dual_basis_smallest_cases():
    assert self_dual_basis(GF2).elements == (1,)
    assert set(self_dual_basis(GF4).elements) == {OMEGA, OMEGA_BAR}


@pytest.mark.parametrize("m", range(1, 7))
def test_self_dual_basis_gram_identity(m):
    f = field_make(m)
    basis = self_dual_basis(f)
    assert len(basis.elements) == m
    gram = basis.gram()
    for i in range(m):
        for j in range(m):
            assert gram[i][j] == (1 if i == j else 0)


@pytest.mark.parametrize("m", (2, 3, 4))
def test_self_dual_basis_spans_field(m):
    f = field_make(m)
    basis = self_dual_basis(f)
    span = {0}
    for b in basis.elements:
        span |= {s ^ b for s in span}
    assert len(span) == f.q


def test_basis_coordinates_reconstruct():
    f = field_make(5)
    basis = self_dual_basis(f)
    for a in range(f.q):
        coords = basis.coordinates(a)
        acc = 0
        for c, b in zip(coords, basis.elements):
            if c:
                acc ^= b
        assert acc == a


def test_doublings_multiply_every_digit_by_powers_of_x():
    rng = random.Random(17)
    for m in (1, 2, 3, 6, 8):
        f = field_make(m)
        for length in (0, 1, 5, 40):
            digits = [rng.randrange(f.q) for _ in range(length)]
            packed = sum(d << (i * m) for i, d in enumerate(digits))
            out = f.doublings(packed)
            assert len(out) == m
            for j, vec in enumerate(out):
                assert vec == sum(f.mul(1 << j, d) << (i * m) for i, d in enumerate(digits))

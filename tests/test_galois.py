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


def test_reducible_modulus_rejected_with_factor():
    field_make.cache_clear()
    with pytest.raises(ValueError, match="reducible"):
        field_make(2, 0b101)  # x^2 + 1 = (x + 1)^2
    field_make.cache_clear()


def test_inverse_law_all_elements():
    for m in (1, 2, 3, 4, 6):
        f = field_make(m)
        for a in range(1, f.q):
            assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        GF4.inv(0)
    with pytest.raises(ZeroDivisionError):
        GF4.div(1, 0)


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
    # intermediate subfield: GF(16) -> GF(4)
    for a in range(16):
        t = f16.trace(a, base_m=2)
        assert f16.pow(t, 4) == t  # lands in the subfield fixed by x -> x^4
    with pytest.raises(ValueError):
        f16.trace(3, base_m=3)


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

import random

import pytest

from qburst.galois import field_make, self_dual_basis
from qburst.cycliccode import contains, in_euclidean_dual, syndrome
from qburst.qccburst import NotDualContaining
from qburst.qrsburst import (
    image_burst_length,
    image_expand,
    reference_self_dual_basis,
    rs_image_burst_limit,
    rs_image_qrb,
    rs_lower_bound,
    rs_make,
    window_pair_sets,
)


def test_rs_make_rejects_hbar_below_one():
    with pytest.raises(ValueError, match="hbar"):
        rs_make(3, 7)  # k = n = 7: g = 1, no check rows at all
    with pytest.raises(ValueError, match="hbar"):
        rs_make(6, 61)  # hbar = 0 would give a negative lower bound
    assert rs_make(6, 59).hbar == 1


def test_rs_make_examples():
    rs = rs_make(4, 5)
    assert (rs.n, rs.k_classical, rs.hbar, rs.K) == (15, 10, 2, 5)
    rs = rs_make(5, 23)
    assert (rs.n, rs.k_classical, rs.hbar) == (31, 27, 2)
    assert rs.code.g.degree == rs.n - rs.k_classical
    with pytest.raises(ValueError, match="parity"):
        rs_make(4, 16)
    with pytest.raises(NotDualContaining):
        rs_make(3, -1)  # k = 3 < n/2


def test_rs_dual_rows_are_codewords():
    rs = rs_make(4, 7)
    for row in rs.code.H.data:
        assert contains(rs.code, row)


def test_image_expand_examples():
    rs = rs_make(3, 3)
    basis = rs.basis
    n, m = rs.n, rs.m
    assert image_expand((0,) * n, basis) == (0,) * (n * m)
    for j, b in enumerate(basis.elements):
        v = (b,) + (0,) * (n - 1)
        bits = image_expand(v, basis)
        expected = [0] * (n * m)
        expected[j] = 1
        assert bits == tuple(expected)


def test_image_linearity_and_injectivity():
    rs = rs_make(4, 5)
    f = rs.field
    rng = random.Random(99)
    seen = {}
    for _ in range(1000):
        a = tuple(rng.randrange(f.q) for _ in range(rs.n))
        b = tuple(rng.randrange(f.q) for _ in range(rs.n))
        ia, ib = image_expand(a, rs.basis), image_expand(b, rs.basis)
        s = tuple(x ^ y for x, y in zip(a, b))
        assert image_expand(s, rs.basis) == tuple(x ^ y for x, y in zip(ia, ib))
        if a != b:
            assert ia != ib
        seen[a] = ia


def test_image_dual_preservation():
    # inner products of images of a codeword and a dual codeword vanish
    rs = rs_make(4, 5)
    f = rs.field
    rng = random.Random(4)
    code = rs.code
    for _ in range(300):
        msg = [rng.randrange(f.q) for _ in range(code.k)]
        word = [0] * code.n
        for i, mcoef in enumerate(msg):
            if mcoef:
                for j, c in enumerate(code.g.coeffs):
                    word[i + j] ^= f.mul(mcoef, c)
        dual_msg = [rng.randrange(f.q) for _ in range(code.r)]
        dual = [0] * code.n
        for i, mcoef in enumerate(dual_msg):
            if mcoef:
                for j, c in enumerate(code.dual_g.coeffs):
                    dual[i + j] ^= f.mul(mcoef, c)
        inner = 0
        for a, b in zip(word, dual):
            inner ^= f.mul(a, b)
        assert f.trace(inner) == 0
        iw = image_expand(word, rs.basis)
        idual = image_expand(dual, rs.basis)
        bit = 0
        for a, b in zip(iw, idual):
            bit ^= a & b
        assert bit == 0


def test_image_burst_length():
    rs = rs_make(3, 3)
    basis = rs.basis
    assert image_burst_length((0,) * rs.n, basis) == 0
    for val in range(1, rs.field.q):
        v = (0, val) + (0,) * (rs.n - 2)
        assert 1 <= image_burst_length(v, basis) <= rs.m
    v = (0, 1, 1) + (0,) * (rs.n - 3)
    assert 2 <= image_burst_length(v, basis) <= 2 * rs.m


def test_lower_bound_examples():
    assert rs_lower_bound(rs_make(4, 5)) == 5
    assert rs_lower_bound(rs_make(5, 23)) == 6
    assert rs_lower_bound(rs_make(3, 3)) == 1  # hbar = 1


def test_window_pair_sets():
    rs = rs_make(4, 5)
    sets = window_pair_sets(rs, 0)
    assert 1 <= len(sets.boxplus) <= 2
    v = len(sets.boxplus)
    q = rs.field.q
    expected = (q - 1) if v == 1 else (q * q - 1)
    assert len(sets.boxtimes) == expected
    assert set(sets.boxtimes_hat) <= set(sets.boxtimes)
    for e, fv in sets.boxtimes:
        assert syndrome(rs.code, e) == syndrome(rs.code, fv)
    for e, fv in sets.boxtimes_hat:
        diff = tuple(a ^ b for a, b in zip(e, fv))
        assert not in_euclidean_dual(rs.code, diff)


def test_report_invariants_and_spot_values():
    rep = rs_image_burst_limit(rs_make(4, 5))
    assert (rep.L, rep.lower, rep.qrb_image) == (8, 5, 10)
    rep = rs_image_burst_limit(rs_make(4, 1))
    assert (rep.L, rep.lower, rep.qrb_image) == (12, 9, 14)
    for m, K in ((3, 1), (3, 3), (4, 3), (4, 9)):
        rep = rs_image_burst_limit(rs_make(m, K))
        assert rep.lower <= rep.L <= rep.qrb_image


def test_reference_basis_is_self_dual():
    for m in (4, 5, 6):
        f = field_make(m)
        basis = reference_self_dual_basis(f)
        gram = basis.gram()
        assert all(
            gram[i][j] == (1 if i == j else 0) for i in range(m) for j in range(m)
        )


def test_qrb_image():
    assert rs_image_qrb(rs_make(4, 5)) == 10
    assert rs_image_qrb(rs_make(5, 1)) == 37


def test_full_m5_column_with_pinned_basis():
    expected = {23: 7, 21: 8, 17: 15, 15: 17, 13: 20, 11: 22, 9: 25, 5: 29, 3: 32, 1: 35}
    for K, L in expected.items():
        assert rs_image_burst_limit(rs_make(5, K)).L == L, f"K={K}"


def _image_limit_oracle(rs, cap):
    """Ground truth by raw burst-pair enumeration over the binary image code.

    Buckets every binary burst of length <= cap by its syndrome against a
    GF(2)-reduced basis of the image dual; the first colliding pair whose
    difference leaves the dual bounds the limit.  Shares nothing with the
    window machinery.
    """
    from itertools import product as iproduct

    f = rs.field
    N = rs.m * rs.n
    packed = []
    for row in rs.code.H.data:
        for c in range(1, f.q):
            bits = image_expand(tuple(f.mul(c, v) for v in row), rs.basis)
            acc = 0
            for i, b in enumerate(bits):
                if b:
                    acc |= 1 << i
            packed.append(acc)
    basis = []
    for v in packed:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    assert len(basis) == rs.m * (rs.n - rs.k_classical)

    def in_dual(v):
        for b in basis:
            v = min(v, v ^ b)
        return v == 0

    def syndrome_key(v):
        return tuple((v & b).bit_count() & 1 for b in basis)

    buckets = {}
    for length in range(0, cap + 1):
        if length == 0:
            pats = [()]
        elif length == 1:
            pats = [(1,)]
        else:
            pats = [(1,) + mid + (1,) for mid in iproduct((0, 1), repeat=length - 2)]
        for start in range(0, N - length + 1):
            for pat in pats:
                v = 0
                for i, bit in enumerate(pat):
                    if bit:
                        v |= 1 << (start + i)
                buckets.setdefault(syndrome_key(v), []).append((v, length))
            if length == 0:
                break

    best = None
    for bucket in buckets.values():
        if len(bucket) < 2:
            continue
        bucket.sort(key=lambda t: t[1])
        for i, (v1, l1) in enumerate(bucket):
            if best is not None and l1 >= best:
                break
            for v2, l2 in bucket[i + 1 :]:
                if best is not None and l2 >= best:
                    break
                d = v1 ^ v2
                if d and not in_dual(d):
                    best = l2
    return None if best is None else best - 1


@pytest.mark.parametrize("m,K", [(4, 5), (4, 9), (3, 1)])
def test_image_limit_matches_pair_enumeration_oracle(m, K):
    rs = rs_make(m, K)
    rep = rs_image_burst_limit(rs)
    assert _image_limit_oracle(rs, rep.L + 1) == rep.L

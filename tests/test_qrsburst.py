import random
from itertools import combinations, product
from operator import xor

import pytest

from qburst.galois import SelfDualBasis, field_make, self_dual_basis
from qburst.cycliccode import burst_length, contains, in_euclidean_dual, syndrome
from qburst.matgf import MatrixGF, rank as matrank
from qburst.polyring import Polynomial, _shift_bases
from qburst.qccburst import NotDualContaining, window_pairs
from qburst.qrsburst import (
    RsReport,
    _span_tables,
    _window_base_pairs,
    _window_kernel,
    image_expand,
    reference_self_dual_basis,
    rs_image_burst_limit,
    rs_image_qrb,
    rs_lower_bound,
    rs_make,
)


def test_rs_make_rejects_hbar_below_one():
    with pytest.raises(ValueError, match="hbar"):
        rs_make(3, 7)  # k = n = 7: g = 1, no check rows at all
    with pytest.raises(ValueError, match="hbar"):
        rs_make(6, 61)  # hbar = 0 would give a negative lower bound
    assert rs_make(6, 59).hbar == 1
    for m, K in ((1, 1), (1, 2), (2, 1), (2, 3)):  # n - 4 < 1: no K at all
        with pytest.raises(ValueError, match=r"^GF\(2\^\d\) with m < 3 has no quantum RS code"):
            rs_make(m, K)


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


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_generator_is_the_product_of_its_roots(m):
    f = field_make(m)
    for K in _odd_K(m):
        rs = rs_make(m, K)
        g = Polynomial.one(f)
        for i in range(1, rs.n - rs.k_classical + 1):
            g = g * Polynomial.make(f, (f.pow(f.alpha, i), 1))
        assert rs.code.g == g
        assert rs.basis is reference_self_dual_basis(f)  # one basis, one Gram check


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
    assert burst_length(image_expand((0,) * rs.n, basis)) == 0
    for val in range(1, rs.field.q):
        v = (0, val) + (0,) * (rs.n - 2)
        assert 1 <= burst_length(image_expand(v, basis)) <= rs.m
    v = (0, 1, 1) + (0,) * (rs.n - 3)
    assert 2 <= burst_length(image_expand(v, basis)) <= 2 * rs.m


def test_lower_bound_examples():
    assert rs_lower_bound(rs_make(4, 5)) == 5
    assert rs_lower_bound(rs_make(5, 23)) == 6
    assert rs_lower_bound(rs_make(3, 3)) == 1  # hbar = 1


def test_window_pair_sets():
    rs = rs_make(4, 5)
    _, boxplus = _window_base_pairs(rs, 0)
    assert 1 <= len(boxplus) <= 2
    v = len(boxplus)
    f = rs.field
    q = f.q
    expected = (q - 1) if v == 1 else (q * q - 1)

    def combine(*terms):
        """sum of lam * (e, f) over the (pair, lam) terms"""
        e, fv = [0] * rs.n, [0] * rs.n
        for (pe, pf), lam in terms:
            for i in range(rs.n):
                e[i] ^= f.mul(lam, pe[i])
                fv[i] ^= f.mul(lam, pf[i])
        return tuple(e), tuple(fv)

    # the scalar closure: single multiples plus pairwise sums
    nonzero = range(1, q)
    boxtimes = [combine((p, lam)) for p in boxplus for lam in nonzero] + [
        combine((p1, l1), (p2, l2))
        for p1, p2 in combinations(boxplus, 2)
        for l1 in nonzero
        for l2 in nonzero
    ]
    assert len(boxtimes) == len(set(boxtimes)) == expected
    for e, fv in boxtimes:
        assert syndrome(rs.code, e) == syndrome(rs.code, fv)
    # every nondegenerate combination spans more than the limit in the image
    limit = rs_image_burst_limit(rs).L
    for e, fv in boxtimes:
        if not in_euclidean_dual(rs.code, tuple(a ^ b for a, b in zip(e, fv))):
            spans = burst_length(image_expand(e, rs.basis)), burst_length(image_expand(fv, rs.basis))
            assert max(spans) > limit


def test_window_pairs_at_rs_width():
    # RS windows are hbar + 1 wide, which exceeds r // 2 when r is odd
    rs = rs_make(4, 5)
    code, width = rs.code, rs.hbar + 1
    assert width > code.r // 2
    for start in range(code.n - 2 * width + 1):
        rank, pairs = window_pairs(code, width, start)
        assert rank + len(pairs) == width and pairs
        assert (rank, pairs) == _window_base_pairs(rs, start)
        for e, fv in pairs:
            assert syndrome(code, e) == syndrome(code, fv)
            assert all(c == 0 for i, c in enumerate(e) if not start <= i < start + width)
            assert all(c == 0 for i, c in enumerate(fv) if i < code.n - width)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_shift_basis_kernel_matches_row_reduction(m):
    # every window the scan reads, T = start + w <= n // 2: the MDS shape,
    # 2w - r packed pairs, is the row reduction's kernel dimension, and the
    # two bases stacked have rank 2w - r, so they span one kernel
    for K in _odd_K(m):
        rs = rs_make(m, K)
        code, n, width = rs.code, rs.n, rs.hbar + 1
        mask = code.field.q - 1

        def digits(p):
            return tuple((p >> i * m) & mask for i in range(width))

        bases = _shift_bases(code.field, code.g.bits, width)
        for start, rows in zip(range(n // 2 - width + 1), bases):
            base = [digits(a) + digits(b) for a, b in _window_kernel(rs, rows)]
            rank, pairs = _window_base_pairs(rs, start)
            oracle = [e[start : start + width] + f[n - width :] for e, f in pairs]
            assert len(base) == width - rank == 2 * width - code.r, (m, K, start)
            stacked = MatrixGF.make(code.field, base + oracle)
            assert matrank(stacked) == len(base), (m, K, start)


@pytest.mark.parametrize("m", [4, 5])
def test_mirror_windows_hold_the_swapped_pairs(m):
    # the window at start s has shift T = s + w, its mirror n - T starts at
    # n - 2w - s; x^(n-T) (f, e) maps the pairs of the one onto the other,
    # so the scan stops at T = n // 2
    for K in _odd_K(m):
        rs = rs_make(m, K)
        code, n, width = rs.code, rs.n, rs.hbar + 1
        for start in range(n - 2 * width + 1):
            shift, mirror = start + width, n - 2 * width - start
            rank, pairs = window_pairs(code, width, start)
            rank2, pairs2 = window_pairs(code, width, mirror)
            assert rank == rank2, (m, K, start)
            span = [e + f for e, f in pairs2]
            swapped = [_rotate(f, n - shift) + _rotate(e, n - shift) for e, f in pairs]
            assert len(span) == len(swapped) == matrank(MatrixGF.make(code.field, span + swapped))


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


def test_equal_bases_share_one_image_table_entry():
    # two bases built separately from the same elements are one value, so
    # the image tables cached by basis are computed once for both
    f = field_make(7)
    elements = self_dual_basis(f).elements
    a, b = SelfDualBasis(f, elements), SelfDualBasis(f, tuple(list(elements)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != SelfDualBasis(f, elements[1:] + elements[:1]) and a != (f, elements)
    tables = _span_tables(a)
    hits, size = _span_tables.cache_info().hits, _span_tables.cache_info().currsize
    assert _span_tables(b) is tables
    assert _span_tables.cache_info().hits == hits + 1
    assert _span_tables.cache_info().currsize == size


def test_self_dual_basis_checks_itself():
    f = field_make(4)
    with pytest.raises(ValueError, match="self-dual"):
        SelfDualBasis(f, (1, 2, 4, 8))  # the polynomial basis fails the Gram identity
    with pytest.raises(ValueError, match="self-dual"):
        SelfDualBasis(f, self_dual_basis(f).elements[:3])  # too few elements
    # once reported L=7 under the polynomial basis; a self-dual basis gives 8
    assert rs_image_burst_limit(rs_make(4, 5, basis=self_dual_basis(f))).L == 8


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


@pytest.mark.parametrize(
    "m,K", [(3, 1), (3, 3), (4, 1), (4, 3), (4, 5), (4, 7), (4, 9), (4, 11)]
)
def test_image_limit_matches_pair_enumeration_oracle(m, K):
    # every quantum RS code of m = 3 and 4: windows with one and with two
    # base pairs, and the width-2 windows of hbar = 1
    rs = rs_make(m, K)
    rep = rs_image_burst_limit(rs)
    assert _image_limit_oracle(rs, rep.L + 1) == rep.L


class _TabledBasis:
    """Stands in for a basis in `image_expand`: the same coordinates, looked
    up instead of recomputed."""

    def __init__(self, basis):
        self.coordinates = [basis.coordinates(s) for s in basis.field.elements()].__getitem__


def _full_kernel_limit(rs):
    """`rs_image_burst_limit` by scoring every nonzero kernel vector alone.

    Each window's kernel is all q^dim - 1 combinations sum_k c_k (e_k, f_k)
    of its base pairs, combined on their windows (e is zero outside the
    window at `start`, f outside the last `width` positions); a vector's
    spans are the `burst_length` of its `image_expand` and its degeneracy is
    `in_euclidean_dual` of the whole e - f.
    """
    f, n, hbar = rs.field, rs.n, rs.hbar
    width = hbar + 1
    basis = _TabledBasis(rs.basis)
    flags = []
    best = None
    for start in range(n - 2 * width + 1):
        rank, base = _window_base_pairs(rs, start)
        if not hbar - 1 <= rank <= hbar and "rank-bound-violated" not in flags:
            flags.append("rank-bound-violated")
        # each base pair as its e window followed by its f window
        windows = [e[start : start + width] + fv[n - width :] for e, fv in base]
        multiples = [[tuple(f.mul(c, x) for x in w) for c in f.elements()] for w in windows]
        for coeffs in product(f.elements(), repeat=len(base)):
            if not any(coeffs):
                continue
            v = (0,) * (2 * width)
            for c, table in zip(coeffs, multiples):
                v = tuple(map(xor, v, table[c]))
            worst = max(
                burst_length(image_expand(v[:width], basis)),
                burst_length(image_expand(v[width:], basis)),
            )
            if best is None or worst < best:
                e = (0,) * start + v[:width] + (0,) * (n - start - width)
                fv = (0,) * (n - width) + v[width:]
                if not in_euclidean_dual(rs.code, tuple(map(xor, e, fv))):
                    best = worst
    qrb = rs_image_qrb(rs)
    if best is None:
        flags.append("bound-limited")
    L = qrb if best is None else best - 1
    return RsReport(rs.m, n, rs.K, L, rs_lower_bound(rs), qrb, tuple(flags))


def _rotate(v, k):
    """x^k v mod x^n - 1, for 0 < k < n."""
    return v[-k:] + v[:-k]


def _odd_K(m):
    """Every K of a quantum RS code over GF(2^m): odd, 1 .. n - 4."""
    return range(1, (1 << m) - 4, 2)


# (m, K): a basis other than the pinned one, and the limit L under it (the
# pinned basis gives 1 and 11); the window kernels do not depend on the basis
_OTHER_BASES = {(4, 11): ((8, 11, 15, 13), 2), (5, 19): ((3, 5, 17, 26, 12), 13)}


@pytest.mark.parametrize(
    "m,K,basis",
    [(m, K, "pinned") for m in (3, 4, 5) for K in _odd_K(m)]
    + [(5, K, "self_dual_basis") for K in _odd_K(5)]
    + [(6, 53, "pinned"), (6, 55, "pinned")]  # one and two base pairs per window
    + [(m, K, elements) for (m, K), (elements, _) in _OTHER_BASES.items()],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_projective_scan_matches_full_kernel(m, K, basis):
    field = field_make(m)
    if isinstance(basis, tuple):
        rs = rs_make(m, K, SelfDualBasis(field, basis))
    else:
        rs = rs_make(m, K, self_dual_basis(field) if basis == "self_dual_basis" else None)
    report = rs_image_burst_limit(rs)
    assert report == _full_kernel_limit(rs)
    if isinstance(basis, tuple):
        assert report.L == _OTHER_BASES[m, K][1]


def test_limit_meets_old_bound_exactly_at_few_K():
    # L >= (hbar - 1) m + 1 everywhere; these K are where the image gains nothing
    at_bound = {}
    for m in (3, 4, 5, 6):
        reports = [rs_image_burst_limit(rs_make(m, K)) for K in _odd_K(m)]
        assert all(rep.L >= rep.lower for rep in reports)
        at_bound[m] = tuple(rep.K for rep in reports if rep.L == rep.lower)
    assert at_bound == {3: (), 4: (11,), 5: (19,), 6: (27, 31)}

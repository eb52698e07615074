"""True burst error correction limits of quantum Reed-Solomon codes.

A narrow-sense RS code over GF(2^m) with n <= 2k contains its Euclidean
dual, so the CSS construction yields a quantum code, and expanding every
symbol over a self-dual basis yields a dual-containing binary image of
length mn.  The image's true burst limit is found by scanning the
(hbar+1)-column windows of the (hbar+1)-shortened check matrix: each
window is rank deficient, its dependency pairs are closed under scalar
combinations, and the shortest binary image span among the nondegenerate
combinations caps the correctable burst length.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycliccode import (
    CyclicCode,
    code_from_generator,
    contains,
    in_euclidean_dual,
)
from .galois import FieldSpec, SelfDualBasis, field_make, self_dual_basis
from .matgf import MatrixGF, row_reduce
from .polyring import Polynomial
from .qccburst import NotDualContaining, solve_tail


@dataclass(frozen=True)
class RsCode:
    """A narrow-sense RS code prepared for quantum image analysis."""

    m: int
    n: int
    k_classical: int
    code: CyclicCode
    basis: SelfDualBasis

    @property
    def K(self) -> int:
        return 2 * self.k_classical - self.n

    @property
    def hbar(self) -> int:
        return (self.n - self.k_classical) // 2

    @property
    def field(self) -> FieldSpec:
        return self.code.field


# The binary image of a code (and hence its burst spans) depends on which
# self-dual basis expands the symbols; the constructions below pin one
# ordered basis per field so every derived number is stable across runs.
# Entries are verified against the Gram identity before use.
_PINNED_BASES: dict[int, tuple[int, ...]] = {
    5: (24, 26, 10, 30, 23),
    6: (60, 9, 58, 26, 44, 56),
}


def reference_self_dual_basis(field: FieldSpec) -> SelfDualBasis:
    """The pinned ordered self-dual basis of GF(2^m) used for images."""
    elements = _PINNED_BASES.get(field.m)
    if elements is None or field != field_make(field.m):
        return self_dual_basis(field)
    basis = SelfDualBasis(field, elements)
    gram = basis.gram()
    if any(gram[i][j] != (1 if i == j else 0) for i in range(field.m) for j in range(field.m)):
        raise AssertionError("pinned basis failed the Gram identity")
    return basis


def rs_make(
    m: int,
    K_quantum: int,
    modulus: int | None = None,
    basis: SelfDualBasis | None = None,
) -> RsCode:
    """Narrow-sense RS code over GF(2^m) for the quantum parameters [[n, K]].

    n = 2^m - 1 and the classical dimension is k = (n + K)/2; the
    generator is the product of (x - alpha^i) for i = 1 .. n-k with alpha
    the canonical primitive element.  Dual containment is verified by
    membership of every dual generator row in the code.
    """
    field = field_make(m, modulus)
    n = field.q - 1
    if (n + K_quantum) % 2 != 0:
        raise ValueError(
            f"no integral classical dimension: n={n}, K={K_quantum} have unequal parity"
        )
    k = (n + K_quantum) // 2
    if not 0 < k <= n:
        raise ValueError(f"classical dimension {k} out of range for n={n}")
    if (n - k) // 2 < 1:
        raise ValueError(f"K={K_quantum} leaves hbar < 1: need K <= n - 4 = {n - 4}")
    if n > 2 * k:
        raise NotDualContaining(f"n={n} > 2k={2 * k}: dual containment impossible")
    g = Polynomial.one(field)
    for i in range(1, n - k + 1):
        g = g * Polynomial.make(field, (field.pow(field.alpha, i), 1))
    code = code_from_generator(n, g)
    for row in code.H.data:
        if not contains(code, row):
            raise NotDualContaining("dual generator row is not a codeword")
    if basis is None:
        basis = reference_self_dual_basis(field)
    elif basis.field != field:
        raise ValueError("basis field does not match the code field")
    return RsCode(m, n, k, code, basis)


def image_expand(v, basis: SelfDualBasis) -> tuple[int, ...]:
    """Binary image of a GF(2^m) vector: each symbol becomes its m basis
    coordinates, concatenated in symbol order."""
    out = []
    for symbol in v:
        out.extend(basis.coordinates(symbol))
    return tuple(out)


def image_burst_length(v, basis: SelfDualBasis) -> int:
    """Burst length of the binary image (0 for the zero vector)."""
    bits = image_expand(v, basis)
    support = [i for i, b in enumerate(bits) if b]
    if not support:
        return 0
    return support[-1] - support[0] + 1


@dataclass(frozen=True)
class RsPairSets:
    """Window pair data: base dependency pairs and their scalar closure.

    `boxplus` holds the base pairs; `boxtimes` all nonzero scalar
    combinations; `boxtimes_hat` the nondegenerate subset (pairs whose
    difference leaves the Euclidean dual).
    """

    start: int
    boxplus: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    boxtimes: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    boxtimes_hat: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


@dataclass(frozen=True)
class RsReport:
    m: int
    n: int
    K: int
    L: int
    lower: int
    qrb_image: int
    flags: tuple[str, ...] = ()


def rs_lower_bound(rs: RsCode) -> int:
    """Previously known guarantee for the binary image: (hbar-1)m + 1."""
    return (rs.hbar - 1) * rs.m + 1


def rs_image_qrb(rs: RsCode) -> int:
    """Quantum Reiger ceiling of the [[nm, Km]] image code."""
    return (rs.m * (rs.n - rs.K)) // 4


def _window_base_pairs(rs: RsCode, start: int):
    """Dependency pairs of the width-(hbar+1) window at `start` (0-based)."""
    code = rs.code
    n, r = code.n, code.r
    width = rs.hbar + 1
    m = code.H.submatrix(r - width, 0, n - width)
    block = MatrixGF(
        code.field, m.rows, width, tuple(row[start : start + width] for row in m.data)
    )
    reduced = row_reduce(block)
    pairs = []
    for free_col in reduced.free_cols:
        e = [0] * n
        for coeff, pivot_col in zip(reduced.combination[free_col], reduced.pivot_cols):
            e[start + pivot_col] = coeff
        e[start + free_col] = 1
        s = code.H.matvec(e)
        if any(s[: r - width]):
            raise AssertionError("window pair has syndrome outside the tail")
        tail = solve_tail(code, s, width)
        fvec = [0] * n
        for u, c in enumerate(tail):
            fvec[n - width + u] = c
        pairs.append((tuple(e), tuple(fvec)))
    return reduced.rank, pairs


def _scalar_combinations(field: FieldSpec, pairs):
    """All nonzero scalar combinations of one or two base pairs."""
    nonzero = range(1, field.q)

    def scaled(vec, lam):
        return tuple(field.mul(lam, v) for v in vec)

    if len(pairs) == 1:
        (e1, f1), = pairs
        for lam in nonzero:
            yield scaled(e1, lam), scaled(f1, lam)
        return
    for a in range(len(pairs)):
        for lam in nonzero:
            yield scaled(pairs[a][0], lam), scaled(pairs[a][1], lam)
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            (e1, f1), (e2, f2) = pairs[a], pairs[b]
            for l1 in nonzero:
                e1s, f1s = scaled(e1, l1), scaled(f1, l1)
                for l2 in nonzero:
                    e = tuple(x ^ y for x, y in zip(e1s, scaled(e2, l2)))
                    fv = tuple(x ^ y for x, y in zip(f1s, scaled(f2, l2)))
                    yield e, fv


def window_pair_sets(rs: RsCode, start: int) -> RsPairSets:
    """Materialized pair sets for one window (analysis/test helper)."""
    _, base = _window_base_pairs(rs, start)
    boxtimes = tuple(_scalar_combinations(rs.field, base))
    hat = tuple(
        (e, fv)
        for e, fv in boxtimes
        if not in_euclidean_dual(rs.code, tuple(a ^ b for a, b in zip(e, fv)))
    )
    return RsPairSets(start, tuple(base), boxtimes, hat)


def _local_span(rs: RsCode, loc: tuple[int, ...], expand) -> int:
    """Image burst length of a support-restricted coefficient block."""
    first = None
    last = None
    for i, s in enumerate(loc):
        if s:
            if first is None:
                first = i
            last = i
    if first is None:
        return 0
    m = rs.m
    first_bits = expand(loc[first])
    last_bits = expand(loc[last])
    lo = first * m + first_bits.index(1)
    hi = last * m + (m - 1 - tuple(reversed(last_bits)).index(1))
    return hi - lo + 1


def rs_image_burst_limit(rs: RsCode) -> RsReport:
    """True burst limit of the binary image of a quantum RS code.

    Scans every window; the shortest nondegenerate scalar combination
    (measured by the larger of its two image spans) bounds the first
    uncorrectable length, and the limit is one less.  When every
    combination everywhere is degenerate the image Reiger bound is
    reported with a flag.
    """
    code = rs.code
    n, hbar = rs.n, rs.hbar
    field = rs.field
    width = hbar + 1
    flags: list[str] = []
    qrb = rs_image_qrb(rs)
    lower = rs_lower_bound(rs)
    best: int | None = None

    expand_cache: dict[int, tuple[int, ...]] = {}

    def expand(symbol: int) -> tuple[int, ...]:
        bits = expand_cache.get(symbol)
        if bits is None:
            bits = rs.basis.coordinates(symbol)
            expand_cache[symbol] = bits
        return bits

    def full_vector(start_pos: int, loc: tuple[int, ...]) -> tuple[int, ...]:
        v = [0] * n
        for i, c in enumerate(loc):
            v[start_pos + i] = c
        return tuple(v)

    last_start = n - 2 * hbar - 2
    for start in range(0, last_start + 1):
        rank_, base = _window_base_pairs(rs, start)
        if not hbar - 1 <= rank_ <= hbar and "rank-bound-violated" not in flags:
            flags.append("rank-bound-violated")
        if not base:
            continue
        compact = [
            (
                tuple(e[start : start + width]),
                tuple(fv[n - width :]),
            )
            for e, fv in base
        ]
        for e_loc, f_loc in _scalar_combinations_local(field, compact):
            span_e = _local_span(rs, e_loc, expand)
            if best is not None and span_e >= best:
                continue
            worst = max(span_e, _local_span(rs, f_loc, expand))
            if best is not None and worst >= best:
                continue
            diff = tuple(
                a ^ b
                for a, b in zip(full_vector(start, e_loc), full_vector(n - width, f_loc))
            )
            if not in_euclidean_dual(code, diff):
                best = worst

    if best is None:
        flags.append("bound-limited")
        L = qrb
    else:
        L = best - 1
    report = RsReport(rs.m, n, rs.K, L, lower, qrb, tuple(flags))
    if not report.lower <= report.L <= report.qrb_image:
        raise AssertionError(
            f"computed limit {report.L} outside [{report.lower}, {report.qrb_image}]"
        )
    return report


def _scalar_combinations_local(field: FieldSpec, pairs):
    """Scalar closure over support-restricted (e, f) coefficient blocks."""
    nonzero = range(1, field.q)

    def scaled(vec, lam):
        return tuple(field.mul(lam, v) for v in vec)

    for e1, f1 in pairs:
        for lam in nonzero:
            yield scaled(e1, lam), scaled(f1, lam)
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            (e1, f1), (e2, f2) = pairs[a], pairs[b]
            for l1 in nonzero:
                e1s, f1s = scaled(e1, l1), scaled(f1, l1)
                for l2 in nonzero:
                    e2s, f2s = scaled(e2, l2), scaled(f2, l2)
                    yield (
                        tuple(x ^ y for x, y in zip(e1s, e2s)),
                        tuple(x ^ y for x, y in zip(f1s, f2s)),
                    )

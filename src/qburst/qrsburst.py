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
from itertools import combinations

from .cycliccode import CyclicCode, burst_length, code_from_generator, in_euclidean_dual
from .galois import FieldSpec, SelfDualBasis, field_make, self_dual_basis
from .matgf import row_reduce  # noqa: F401  perfbench's tracer patches this binding
from .polyring import Polynomial
from .qccburst import NotDualContaining, window_pairs


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
# `SelfDualBasis` checks each entry against the Gram identity.
_PINNED_BASES: dict[int, tuple[int, ...]] = {
    5: (24, 26, 10, 30, 23),
    6: (60, 9, 58, 26, 44, 56),
}


def reference_self_dual_basis(field: FieldSpec) -> SelfDualBasis:
    """The pinned ordered self-dual basis of GF(2^m) used for images."""
    elements = _PINNED_BASES.get(field.m)
    if elements is None or field != field_make(field.m):
        return self_dual_basis(field)
    return SelfDualBasis(field, elements)


def rs_make(
    m: int,
    K_quantum: int,
    basis: SelfDualBasis | None = None,
) -> RsCode:
    """Narrow-sense RS code over GF(2^m) for the quantum parameters [[n, K]].

    n = 2^m - 1 and the classical dimension is k = (n + K)/2; the
    generator is the product of (x - alpha^i) for i = 1 .. n-k with alpha
    the canonical primitive element.  Dual containment is verified by
    one divisibility test: g divides the dual generator.
    """
    field = field_make(m)
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
    if not (code.dual_g % code.g).is_zero:
        raise NotDualContaining("the Euclidean dual is not contained in the code")
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
    return burst_length(image_expand(v, basis))


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
    """Rank and dependency pairs of the width-(hbar+1) window at `start`."""
    return window_pairs(rs.code, rs.hbar + 1, start)


def rs_image_burst_limit(rs: RsCode) -> RsReport:
    """True burst limit of the binary image of a quantum RS code.

    Scans every window; the shortest nondegenerate scalar combination
    (measured by the larger of its two image spans) bounds the first
    uncorrectable length, and the limit is one less.  When every
    combination everywhere is degenerate the image Reiger bound is
    reported with a flag.

    The binary image map is GF(2)-linear, so each window packs the image
    of every scalar multiple of its pairs into an int once (bit i*m + j
    holds coordinate j of symbol i): a combination is one XOR and its
    image span a difference of bit lengths.
    """
    code = rs.code
    n, m, hbar = rs.n, rs.m, rs.hbar
    mul = rs.field.mul
    width = hbar + 1
    flags: list[str] = []
    qrb = rs_image_qrb(rs)
    lower = rs_lower_bound(rs)
    unset = m * n + 1  # longer than any image span
    best = unset
    image = [
        sum(bit << j for j, bit in enumerate(rs.basis.coordinates(s)))
        for s in range(rs.field.q)
    ]
    nonzero = range(1, rs.field.q)

    def scaled_images(block) -> list[int]:
        """Packed image of lam * block at index lam (index 0 holds 0)."""
        return [0] + [
            sum(image[mul(lam, s)] << (i * m) for i, s in enumerate(block) if s)
            for lam in nonzero
        ]

    for start in range(0, n - 2 * width + 1):
        rank_, base = _window_base_pairs(rs, start)
        if not hbar - 1 <= rank_ <= hbar and "rank-bound-violated" not in flags:
            flags.append("rank-bound-violated")
        images = [
            (scaled_images(e[start : start + width]), scaled_images(fv[n - width :]))
            for e, fv in base
        ]
        # single multiples (no partner, scalar 0), then pairwise sums
        singles = [(a, None) for a in range(len(base))]
        for a, b in singles + list(combinations(range(len(base)), 2)):
            e1, f1 = images[a]
            e2, f2 = images[b] if b is not None else ((0,), (0,))
            for l1 in nonzero:
                for l2 in nonzero if b is not None else (0,):
                    ex = e1[l1] ^ e2[l2]
                    span_e = ex.bit_length() - (ex & -ex).bit_length() + 1
                    if span_e >= best:
                        continue
                    fx = f1[l1] ^ f2[l2]
                    worst = max(span_e, fx.bit_length() - (fx & -fx).bit_length() + 1)
                    if worst >= best:
                        continue
                    diff = [0] * n
                    for k, lam in ((a, l1), (b, l2)):
                        if lam:
                            e, fv = base[k]
                            for i in range(n):
                                diff[i] ^= mul(lam, e[i] ^ fv[i])
                    if not in_euclidean_dual(code, tuple(diff)):
                        best = worst

    if best == unset:
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

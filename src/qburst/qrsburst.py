"""True burst error correction limits of quantum Reed-Solomon codes.

A narrow-sense RS code over GF(2^m) with n <= 2k contains its Euclidean
dual, so the CSS construction yields a quantum code, and expanding every
symbol over a self-dual basis yields a dual-containing binary image of
length mn.  The image's true burst limit is found by scanning the
(hbar+1)-column windows of the (hbar+1)-shortened check matrix: each
window is rank deficient, every nonzero vector of its kernel is a pair
of confusable errors, and the shortest binary image span among the
nondegenerate ones caps the correctable burst length.

A window of width w at start s holds the pairs e = x^s a, f = x^(n-w) b
with deg a, deg b < w and x^T a = b (mod g), T = s + w.  The code is MDS,
so these pairs form a space of dimension exactly 2w - r (MacWilliams and
Sloane, ch. 11): one pair when r is odd and two when r is even, with
w = hbar + 1.  `_window_kernel` reads them off a weak Popov basis of the
module M_T = {(a, b) : x^T a = b (mod g)} as packed pairs (a, b), with no
row reduction.  `polyring._shift_bases` carries that basis from one start
to the next (M_(T+1) = {(a, b) : (x a, b) in M_T}) in a few operations on
its two rows, so no start reruns a Euclidean algorithm.

The kernel is scanned by projective points {c * v : c != 0}, each once
(b0, then the line b1 + lam * b0), and that is exact: degeneracy is
GF(2^m)-linear, so one dual test serves every multiple, and every
multiple has v's support, so its image span comes from the two end
symbols alone, read from tables indexed by discrete log, with no field
multiply in the scan.

Only the windows whose shift T = start + width is at most n // 2 are
scanned.  g divides x^n - 1, so the window at shift n - T holds the
pairs of the window at T with e and f swapped (x^T a = b (mod g) implies
x^(n-T) b = a): the two windows have the same rank, every kernel vector
has the same pair of image spans, and its e' - f' is x^(n-T) (f - e) mod
x^n - 1, which is in the (cyclic) Euclidean dual iff e - f is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import sub

from .cycliccode import CyclicCode, code_from_generator, in_euclidean_dual
from .galois import FieldSpec, SelfDualBasis, _times, field_make, self_dual_basis
from .matgf import row_reduce  # noqa: F401  perfbench's tracer patches this binding
from .polyring import Polynomial, _shift_bases
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


@lru_cache(maxsize=None)
def reference_self_dual_basis(field: FieldSpec) -> SelfDualBasis:
    """The pinned ordered self-dual basis of GF(2^m) used for images (built,
    and so checked against the Gram identity, once per field)."""
    elements = _PINNED_BASES.get(field.m)
    if elements is None:
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
    if n - 4 < 1:
        raise ValueError(f"GF(2^{m}) with m < 3 has no quantum RS code: n - 4 = {n - 4} < 1")
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
        # g * (x - alpha^i) = x g + alpha^i g, with no product table
        g = Polynomial(field, (g.bits << m) ^ g.scale(field.pow(field.alpha, i)).bits)
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
    # row reduction on purpose: the tests' oracle, and perfbench's reference recorder
    return window_pairs(rs.code, rs.hbar + 1, start)


def _window_kernel(rs: RsCode, rows) -> list[tuple[int, int]]:
    """The 2w - r basis pairs (a, b), packed, of the width-w window
    (w = hbar + 1) at the shift T whose weak Popov rows are given
    (`polyring._shift_bases`).

    The kernel is the pairs of M_T with deg a, deg b < w.  A pair of M_T is
    u1 R1 + u2 R2 with the larger of the degrees deg u_i + deg R_i, so the
    kernel basis is {x^u * R_i : u < w - deg R_i}.  The code is MDS, so
    there are exactly 2w - r of them (module docstring); the scan relies on
    that shape, so any other count stops it.
    """
    m, width = rs.m, rs.hbar + 1
    kernel = []
    for a, b in rows:
        room = width + 1 - (max(a.bit_length(), b.bit_length()) + m - 1) // m
        kernel.extend((a << u * m, b << u * m) for u in range(room))
    if len(kernel) != 2 * width - rs.code.r:
        raise AssertionError(f"window kernel of dimension {len(kernel)}, not 2w - r")
    return kernel


@lru_cache(maxsize=None)
def _span_tables(basis: SelfDualBasis):
    """Image tables of GF(2^m) under one basis, indexed by the discrete log k
    of alpha^k.

    Returns the field's exp (doubled) and log; `top` and `low`, the bit
    length and the 1-based lowest set bit of each element's packed image
    (doubled, so a slice of q - 1 entries from any log is one full turn); and
    side_min, where side_min[d] is the least top(c * alpha^d) - low(c) over
    c != 0.
    """
    field = basis.field
    order, exp = field.q - 1, field._exp
    images = [sum(bit << j for j, bit in enumerate(basis.coordinates(a))) for a in exp[:order]]
    top = [x.bit_length() for x in images]
    low = [(x & -x).bit_length() for x in images]
    side_min = [min(top[(u + d) % order] - low[u] for u in range(order)) for d in range(order)]
    return tuple(exp), tuple(field._log), tuple(top * 2), tuple(low * 2), tuple(side_min)


def rs_image_burst_limit(rs: RsCode) -> RsReport:
    """True burst limit of the binary image of a quantum RS code.

    Scans the windows whose shift T = start + width is at most n // 2
    (the window at n - T holds the same pairs swapped; module docstring),
    each kernel from `_window_kernel`; the shortest nondegenerate vector
    of a kernel (measured by the larger of its two image spans) bounds the
    first uncorrectable length, and the limit is one less.  When every
    kernel vector everywhere is degenerate the image Reiger bound is
    reported with a flag.

    A kernel is one packed pair b0, or two, b0 and b1, when r is even (the
    MDS shape).  It is scanned by projective points {c * v : c != 0}, each
    once: b0, then the line b1 + lam * b0 (lam in GF(q)), a point being b1
    XOR lam times b0's doublings.  Two facts keep this exact.  Degeneracy
    is GF(q)-linear, so one dual test serves a point.  And every multiple
    c * v has v's support, so its image span (bit i*m + j of the packed
    image holds coordinate j of symbol i) is
    m * (hi - lo) + 1 + top(c * v_hi) - low(c * v_lo) for the end symbols
    lo <= hi of v; over c this depends only on the ratio v_hi / v_lo, whose
    best case side_min prunes a point before its q - 1 multiples are
    scored.  On the line the ends are those of the union support of b1 and
    b0 for every lam except the ones (at most one per end) that cancel an
    end symbol; those points are scored from their own vectors.  Only a
    point that survives the pruning is spelled out for its dual test.
    """
    code, field = rs.code, rs.field
    n, m = rs.n, rs.m
    order = mask = field.q - 1
    width = rs.hbar + 1
    exp, log, top, low, side_min = _span_tables(rs.basis)
    least = min(side_min)
    qrb = rs_image_qrb(rs)
    lower = rs_lower_bound(rs)
    unset = m * n + 1  # longer than any image span
    best = unset

    # A kernel vector (e, f) is held as its two packed windows (a, b), with
    # e = x^start a and f = x^(n - width) b; the windows are disjoint.
    def bounds(x: int) -> tuple[int, int]:
        """The indices lo <= hi of the lowest and highest nonzero digits of x."""
        return ((x & -x).bit_length() - 1) // m, (x.bit_length() - 1) // m

    def ends(x: int):
        """(m * (hi - lo) + 1, log x_lo, log x_hi) of one packed window x."""
        lo, hi = bounds(x)
        return m * (hi - lo) + 1, log[x >> lo * m & mask], log[x >> hi * m]

    def spans(base: int, lo: int, hi: int):
        """The image spans of alpha^t * v for t = 0 .. q - 2."""
        return map(base.__add__, map(sub, top[hi : hi + order], low[lo : lo + order]))

    def score(e_ends, f_ends) -> int:
        """The shortest larger span over the multiples of a point whose
        windows have these ends, or `unset` if side_min shows it is no
        shorter than `best`."""
        (span_e, lo_e, hi_e), (span_f, lo_f, hi_f) = e_ends, f_ends
        if max(span_e + side_min[hi_e - lo_e], span_f + side_min[hi_f - lo_f]) >= best:
            return unset
        return min(map(max, spans(span_e, lo_e, hi_e), spans(span_f, lo_f, hi_f)))

    def admit(worst: int, a: int, b: int) -> None:
        """Lower `best` to `worst`, if that is shorter and the point (a, b)
        is nondegenerate."""
        nonlocal best
        if worst < best:
            diff = Polynomial(field, a << start * m | b << (n - width) * m).coeffs
            if not in_euclidean_dual(code, diff + (0,) * (n - len(diff))):
                best = worst

    def end_logs(x: int, y: int) -> list[int]:
        """log(x + alpha^s * y) for s = 0 .. q - 2 (0 where that is 0)."""
        if not y:
            return [log[x]] * order
        ly = log[y]
        return [log[x ^ exp[s + ly]] for s in range(order)]

    # the bases of the shifts T = width .. n // 2, one per start
    for start, rows in zip(range(n // 2 - width + 1), _shift_bases(field, code.g.bits, width)):
        (a0, b0), *second = _window_kernel(rs, rows)
        admit(score(ends(a0), ends(b0)), a0, b0)
        if not second:
            continue
        # r even: the points (a1, b1) + lam * (a0, b0), lam in GF(q)
        a1, b1 = second[0]
        da, db = field.doublings(a0), field.doublings(b0)
        special = {0}
        generic_spans = []
        end_pairs = []
        for u, w in ((a1, a0), (b1, b0)):
            lo, hi = bounds(u | w)
            for k in (lo, hi):
                x, y = u >> k * m & mask, w >> k * m & mask
                if x and y:
                    special.add(exp[log[x] - log[y] + order])  # cancels digit k
                end_pairs.append((x, y))
            generic_spans.append(m * (hi - lo) + 1)
        for lam in special:
            a, b = a1 ^ _times(da, lam), b1 ^ _times(db, lam)
            admit(score(ends(a), ends(b)), a, b)
        span_e, span_f = generic_spans
        if max(span_e, span_f) + least >= best:
            continue
        logs = zip(exp, *(end_logs(x, y) for x, y in end_pairs))
        for lam, lo_e, hi_e, lo_f, hi_f in logs:
            if lam not in special:
                worst = score((span_e, lo_e, hi_e), (span_f, lo_f, hi_f))
                if worst < best:
                    admit(worst, a1 ^ _times(da, lam), b1 ^ _times(db, lam))

    if best == unset:
        L, flags = qrb, ("bound-limited",)
    else:
        L, flags = best - 1, ()
    report = RsReport(rs.m, n, rs.K, L, lower, qrb, flags)
    if not report.lower <= report.L <= report.qrb_image:
        raise AssertionError(
            f"computed limit {report.L} outside [{report.lower}, {report.qrb_image}]"
        )
    return report

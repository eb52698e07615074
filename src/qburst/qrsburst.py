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
with deg a, deg b < w and x^T a = b (mod g), T = s + w.  Its kernel
comes from the extended Euclidean rows of (g, x^T mod g), with no row
reduction (`_window_kernel`): the rows with max(deg t, deg b) < w,
and their multiples by x below w, are a basis of it.  x^T mod g is
stepped from one start to the next by one packed shift-and-reduce.

The kernel is scanned by projective points {c * v : c != 0}, each once,
and that is exact: degeneracy is GF(2^m)-linear, so one dual test serves
every multiple, and every multiple has v's support, so its image span
comes from the two end symbols alone, read from tables indexed by
discrete log, with no field multiply in the scan.

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
from itertools import product
from operator import sub

from .cycliccode import CyclicCode, code_from_generator, in_euclidean_dual
from .galois import FieldSpec, SelfDualBasis, field_make, self_dual_basis
from .matgf import row_reduce  # noqa: F401  perfbench's tracer patches this binding
from .polyring import Polynomial, _euclid_rows
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


def _window_kernel(rs: RsCode, h: int):
    """Rank and kernel basis of the width-(hbar+1) window at the shift T
    whose packed h = x^T mod g is given.

    The kernel is the pairs (a, b) with deg a, deg b < w = hbar + 1 and
    b = x^T a (mod g), each returned as a's w digits followed by b's.  The
    extended Euclidean rows (t, b) of (g, h) have max(deg t, deg b) falling
    to a least value and rising again.  The two consecutive rows about that
    least value span every pair, and their leading digits are independent,
    so c * row + c' * row' has the larger of the degrees of its two terms:
    a pair of the window is such a sum with deg c < w - max(deg t, deg b).
    The kernel basis is {x^u * row : u < w - max(deg t, deg b)} over the
    rows with that maximum below w.  As w = hbar + 1 > r / 2, only those two
    rows can be among them (their maxima add up to r), and one at least is.
    """
    m, mask, width = rs.m, rs.field.q - 1, rs.hbar + 1

    def digits(p):
        return tuple((p >> (i * m)) & mask for i in range(width))

    basis = []
    for t, b in _euclid_rows(rs.field, rs.code.g.bits, h, width):
        room = width + 1 - (max(t.bit_length(), b.bit_length()) + m - 1) // m
        basis.extend(digits(t << (u * m)) + digits(b << (u * m)) for u in range(room))
    return width - len(basis), basis


@lru_cache(maxsize=None)
def _span_tables(basis: SelfDualBasis):
    """Image tables of GF(2^m) under one basis, indexed by the discrete log k
    of alpha^k.

    Returns exp (doubled) and log; `top` and `low`, the bit length and the
    1-based lowest set bit of each element's packed image (doubled, so a
    slice of q - 1 entries from any log is one full turn); and side_min,
    where side_min[d] is the least top(c * alpha^d) - low(c) over c != 0.
    """
    field = basis.field
    order = field.q - 1
    exp = [field.pow(field.alpha, k) for k in range(order)]
    log = [0] * field.q
    for k, a in enumerate(exp):
        log[a] = k
    images = [sum(bit << j for j, bit in enumerate(basis.coordinates(a))) for a in exp]
    top = [x.bit_length() for x in images]
    low = [(x & -x).bit_length() for x in images]
    side_min = [min(top[(u + d) % order] - low[u] for u in range(order)) for d in range(order)]
    return tuple(exp * 2), tuple(log), tuple(top * 2), tuple(low * 2), tuple(side_min)


def rs_image_burst_limit(rs: RsCode) -> RsReport:
    """True burst limit of the binary image of a quantum RS code.

    Scans the windows whose shift T = start + width is at most n // 2
    (the window at n - T holds the same pairs swapped; module docstring),
    each kernel from `_window_kernel`; the shortest nondegenerate vector
    of a kernel (measured by the larger of its two image spans) bounds the
    first uncorrectable length, and the limit is one less.  When every kernel vector everywhere is degenerate
    the image Reiger bound is reported with a flag.

    The kernel is scanned by projective points {c * v : c != 0}, each once:
    the first basis vector b0 alone, then the lines u + lam * b0 (lam in
    GF(q)) over the other points u of the kernel.  Two facts keep this
    exact.  Degeneracy is GF(q)-linear, so one dual test serves a point.
    And every multiple c * v has v's support, so its image span (bit i*m + j
    of the packed image holds coordinate j of symbol i) is
    m * (hi - lo) + 1 + top(c * v_hi) - low(c * v_lo) for the end symbols
    lo <= hi of v; over c this depends only on the ratio v_hi / v_lo,
    whose best case side_min prunes a point before its q - 1 multiples
    are scored.  On a line the ends are those of the union support of u
    and b0 for every lam except the ones (at most one per end) that
    cancel an end symbol; those points are scored from their own vectors.
    """
    code = rs.code
    n, m, hbar = rs.n, rs.m, rs.hbar
    order = rs.field.q - 1
    width = hbar + 1
    exp, log, top, low, side_min = _span_tables(rs.basis)
    least = min(side_min)
    flags: list[str] = []
    qrb = rs_image_qrb(rs)
    lower = rs_lower_bound(rs)
    unset = m * n + 1  # longer than any image span
    best = unset

    # A kernel vector (e, f) is held as one tuple: e's window, then f's.
    # The windows are disjoint, so e - f is the two put in place (e's
    # window starts at the scan's `start`).
    def axpy(u, lam: int, w):
        """u + lam * w, symbol by symbol."""
        if not lam:
            return u
        s = log[lam]
        return tuple(x ^ exp[s + log[y]] if y else x for x, y in zip(u, w))

    def ends(v, side: int):
        """(m * (hi - lo) + 1, log v_lo, log v_hi) of one window of v."""
        part = v[side : side + width]
        support = [k for k, x in enumerate(part) if x]
        lo, hi = support[0], support[-1]
        return m * (hi - lo) + 1, log[part[lo]], log[part[hi]]

    def spans(base: int, lo: int, hi: int):
        """The image spans of alpha^t * v for t = 0 .. q - 2."""
        return map(base.__add__, map(sub, top[hi : hi + order], low[lo : lo + order]))

    def score(e_ends, f_ends, u, lam: int, w) -> None:
        """Lower `best` to the shortest larger span over the multiples of
        the point u + lam * w, if that is shorter and the point is
        nondegenerate."""
        nonlocal best
        (span_e, lo_e, hi_e), (span_f, lo_f, hi_f) = e_ends, f_ends
        if max(span_e + side_min[hi_e - lo_e], span_f + side_min[hi_f - lo_f]) >= best:
            return
        worst = min(map(max, spans(span_e, lo_e, hi_e), spans(span_f, lo_f, hi_f)))
        if worst < best:
            v = axpy(u, lam, w)
            diff = (0,) * start + v[:width] + (0,) * (n - 2 * width - start) + v[width:]
            if not in_euclidean_dual(code, diff):
                best = worst

    def end_logs(x: int, y: int) -> list[int]:
        """log(x + alpha^s * y) for s = 0 .. q - 2 (0 where that is 0)."""
        if not y:
            return [log[x]] * order
        ly = log[y]
        return [log[x ^ exp[s + ly]] for s in range(order)]

    def line(u, w) -> None:
        """Score the points u + lam * w for lam in GF(q)."""
        special = {0}
        generic_spans = []
        end_pairs = []
        for side in (0, width):
            support = [k for k in range(side, side + width) if u[k] or w[k]]
            for k in (support[0], support[-1]):
                if u[k] and w[k]:
                    special.add(exp[log[u[k]] - log[w[k]] + order])  # cancels v_k
                end_pairs.append((u[k], w[k]))
            generic_spans.append(m * (support[-1] - support[0]) + 1)
        for lam in special:
            v = axpy(u, lam, w)
            score(ends(v, 0), ends(v, width), u, lam, w)
        span_e, span_f = generic_spans
        if max(span_e, span_f) + least >= best:
            return
        logs = zip(exp, *(end_logs(x, y) for x, y in end_pairs))
        for lam, lo_e, hi_e, lo_f, hi_f in logs:
            if lam not in special:
                score((span_e, lo_e, hi_e), (span_f, lo_f, hi_f), u, lam, w)

    # h = x^T mod g for the shift T = start + width, stepped once per start
    # by packed shift-and-reduce (g is monic)
    r, gmul = code.r, code.g._multiples
    h = 1 << (width - 1) * m
    for start in range(0, n // 2 - width + 1):
        h <<= m
        h ^= gmul[h >> (r * m)]
        rank_, base = _window_kernel(rs, h)
        if not hbar - 1 <= rank_ <= hbar and "rank-bound-violated" not in flags:
            flags.append("rank-bound-violated")
        if not base:
            continue
        first, *rest = base
        score(ends(first, 0), ends(first, width), first, 0, first)
        # every other point is, scaled, rest[k] + sum_{i<k} c_i rest[i] + lam b0
        for k, head in enumerate(rest):
            for coeffs in product(range(order + 1), repeat=k):
                u = head
                for c, vec in zip(coeffs, rest):
                    u = axpy(u, c, vec)
                line(u, first)

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

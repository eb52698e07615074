"""Burst error correction limits of quantum cyclic codes.

The degenerate limit L of a code is found by sweeping window lengths
ell = 1, 2, ...: the code corrects all quantum bursts of length ell
provided every ell-column window of the ell-shortened check matrix has
full rank, or every dependency pair arising from a rank-deficient window
is degenerate (its two members differ by a stabilizer element).  The
sweep stops at the first ell admitting a nondegenerate pair; the
quantum Reiger bound caps the sweep at floor(r/2).

The nondegenerate limit ell0 is tracked in the same sweep as the last
length before any rank-deficient window (or single-error collision)
appears at all.  `window_pairs` is the one window kernel: the classical
limit (every window of full rank) and the binary-image limit of quantum
Reed-Solomon codes (`qrsburst`, at width hbar + 1) use it too.

An exhaustive pair enumeration over canonical burst patterns provides an
independent oracle for small lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cycliccode import (
    CyclicCode,
    _burst_patterns,
    burst_count,
    css_dual_containing,
    hermitian_dual_containing,
    in_euclidean_dual,
    in_hermitian_dual,
    syndrome,
)
from .matgf import row_reduce
from .polyring import Polynomial


class NotDualContaining(ValueError):
    """The classical code(s) do not admit the quantum construction."""


def window_pairs(code: CyclicCode, width: int, start: int):
    """Rank and dependency pairs of the `width` consecutive columns at
    `start` of the width-shortened check matrix (H without its last
    `width` rows and columns).

    Returns (rank, pairs) with one pair (e, f) per free column of the
    window's reduction: e is supported inside the window, f inside the
    last `width` positions, and e + f is a codeword, so the two errors
    have equal syndromes.  A full-rank window has no pairs.
    """
    n, r = code.n, code.r
    if not 1 <= width <= r:
        raise ValueError(f"window width must be in [1, {r}], got {width}")
    if not 0 <= start <= n - 2 * width:
        raise ValueError(f"window start must be in [0, {n - 2 * width}], got {start}")
    reduced = row_reduce(code.H.submatrix(r - width, start, start + width))
    pairs = []
    for free_col in reduced.free_cols:
        e = [0] * n
        for coeff, pivot_col in zip(reduced.combination[free_col], reduced.pivot_cols):
            e[start + pivot_col] = coeff
        e[start + free_col] = 1
        # x^n = 1 mod g, so f = x^(n-width) ((x^width e) mod g) = e mod g
        tail = Polynomial.make(code.field, [0] * width + e) % code.g
        if tail.degree >= width:
            raise AssertionError("window pair has syndrome outside the tail")
        fvec = (0,) * (n - width) + tail.coeffs + (0,) * (width - len(tail.coeffs))
        pairs.append((tuple(e), fvec))
    return reduced.rank, tuple(pairs)


def classical_burst_limit(code: CyclicCode) -> int:
    """Largest b such that every b consecutive columns of the b-shortened
    check matrix are linearly independent; 0 when single errors collide."""
    cap = min(code.r, code.n) // 2
    for b in range(1, cap + 1):
        if any(window_pairs(code, b, start)[0] < b for start in range(code.n - 2 * b + 1)):
            return b - 1
    return cap


def degeneracy_check(
    code: CyclicCode,
    e,
    f,
    mode: str = "hermitian",
    dual_of: CyclicCode | None = None,
) -> bool:
    """True when confusing e with f is harmless.

    The pair must have equal syndromes.  Hermitian mode tests e + f
    against the Hermitian dual of the code; CSS mode tests it against
    the Euclidean dual of `dual_of` (the opposite code of the pair,
    defaulting to `code` itself).
    """
    if syndrome(code, e) != syndrome(code, f):
        raise ValueError("degeneracy is only defined for equal-syndrome pairs")
    diff = tuple(a ^ b for a, b in zip(e, f))
    return _harmless(code, diff, mode, dual_of if dual_of is not None else code)


def _harmless(code: CyclicCode, diff, mode: str, dual_of: CyclicCode) -> bool:
    """Whether the difference of two confusable errors is a stabilizer."""
    if mode == "hermitian":
        return in_hermitian_dual(code, diff)
    if mode == "css":
        return in_euclidean_dual(dual_of, diff)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class QccReport:
    """Computed burst limits of one quantum cyclic code."""

    n: int
    K: int
    L: int
    ell0: int
    construction: str  # "hermitian" | "css"
    generators: tuple[tuple[int, ...], ...]  # coefficient tuples, low degree first
    flags: tuple[str, ...] = ()

    @property
    def delta(self) -> int:
        return self.n - self.K - 4 * self.L


def reiger_delta(n: int, K: int, L: int) -> int:
    """Distance n - K - 4L to the quantum Reiger bound."""
    return n - K - 4 * L


def reiger_classification(delta: int) -> str | None:
    if delta == 0:
        return "optimal"
    if delta in (1, 2):
        return "nearly optimal"
    return None


def _proportional_column_pairs(code: CyclicCode):
    """Yield (i, j, lam) for distinct H-columns with col_i = lam * col_j."""
    f = code.field
    cols = [code.H.column(j) for j in range(code.n)]
    keyed: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for j, col in enumerate(cols):
        lead = next((v for v in col if v), None)
        if lead is None:
            continue
        inv = f.inv(lead)
        canon = tuple(f.mul(inv, v) for v in col)
        keyed.setdefault(canon, []).append((j, lead))
    for group in keyed.values():
        for (i, lead_i), (j, lead_j) in combinations(group, 2):
            yield i, j, f.div(lead_i, lead_j)


def _component_sweep(code: CyclicCode, mode: str, dual_of: CyclicCode):
    """One sweep of the limit algorithm against a single classical code.

    Returns (L, ell0, flags): L is the first length admitting a
    nondegenerate pair minus one (or the Reiger cap), ell0 likewise for
    any rank deficiency or syndrome collision at all.
    """
    n, r = code.n, code.r
    cap = r // 2
    flags: list[str] = []
    ell0: int | None = None

    for j in range(n):
        if all(v == 0 for v in code.H.column(j)):
            flags.append("zero-column")
            return 0, 0, tuple(flags)

    for i, j, lam in _proportional_column_pairs(code):
        e = [0] * n
        fvec = [0] * n
        e[i] = 1
        fvec[j] = lam
        ell0 = 0
        if not degeneracy_check(code, tuple(e), tuple(fvec), mode, dual_of):
            return 0, 0, tuple(flags)

    for ell in range(1, cap + 1):
        for start in range(0, n - 2 * ell + 1):
            rank, pairs = window_pairs(code, ell, start)
            if rank == ell:
                continue
            if ell0 is None:
                ell0 = ell - 1
            for e, fvec in pairs:
                if not degeneracy_check(code, e, fvec, mode, dual_of):
                    return ell - 1, min(ell0, ell - 1), tuple(flags)
    flags.append("cap-limited")
    if ell0 is None:
        ell0 = cap
    return cap, ell0, tuple(flags)


def qcc_burst_limit_hermitian(code: CyclicCode) -> QccReport:
    """Degenerate and nondegenerate burst limits of a GF(4) cyclic code."""
    if not hermitian_dual_containing(code):
        raise NotDualContaining(f"{code!r}: H H^dagger != 0")
    L, ell0, flags = _component_sweep(code, "hermitian", code)
    K = 2 * code.k - code.n
    report = QccReport(code.n, K, L, ell0, "hermitian", (code.g.coeffs,), flags)
    if report.delta < 0:
        raise AssertionError("computed limit violates the quantum Reiger bound")
    return report


def qcc_burst_limit_css(c1: CyclicCode, c2: CyclicCode | None = None) -> QccReport:
    """Burst limits of a CSS pair (c2 defaults to c1).

    Bit-flip and phase-flip components are swept independently, each
    against its own code with degeneracy judged by the other code's
    dual; the code corrects what both components correct.
    """
    if c2 is None:
        c2 = c1
    if not css_dual_containing(c1, c2):
        raise NotDualContaining(f"{c1!r} / {c2!r}: dual containment fails")
    lx, ell0x, fx = _component_sweep(c1, "css", c2)
    lz, ell0z, fz = _component_sweep(c2, "css", c1)
    L = min(lx, lz)
    ell0 = min(ell0x, ell0z)
    flags = tuple(sorted(set(fx) & set(fz)))
    K = c1.k + c2.k - c1.n
    gens = (c1.g.coeffs,) if c2.g == c1.g else (c1.g.coeffs, c2.g.coeffs)
    report = QccReport(c1.n, K, L, ell0, "css", gens, flags)
    if report.delta < 0:
        raise AssertionError("computed limit violates the quantum Reiger bound")
    return report


def qcc_burst_limit(codes, construction: str) -> QccReport:
    """Dispatch on construction kind: 'hermitian' or 'css'."""
    if construction == "hermitian":
        return qcc_burst_limit_hermitian(codes)
    if construction == "css":
        if isinstance(codes, CyclicCode):
            return qcc_burst_limit_css(codes)
        return qcc_burst_limit_css(*codes)
    raise ValueError(f"unknown construction {construction!r}")


# ---------------------------------------------------------------------------
# Independent oracle: exhaustive burst-pair enumeration.
# ---------------------------------------------------------------------------


def brute_force_limit(
    codes,
    construction: str = "hermitian",
    cap: int | None = None,
    guard: int = 2_000_000,
) -> tuple[int, int]:
    """Exhaustive (L, ell0) over all canonical burst pairs up to the cap.

    Buckets bursts by syndrome; every pair inside a bucket differs by a
    codeword, and the first (by max burst length) nondegenerate pair sets
    L, the first collision of any kind sets ell0.  Independent of the
    window machinery.
    """
    if construction == "hermitian":
        code_list = [(codes, codes, "hermitian")]
        base = codes
        if not hermitian_dual_containing(base):
            raise NotDualContaining(f"{base!r}")
    elif construction == "css":
        if isinstance(codes, CyclicCode):
            c1 = c2 = codes
        else:
            c1, c2 = codes
        if not css_dual_containing(c1, c2):
            raise NotDualContaining(f"{c1!r} / {c2!r}")
        code_list = [(c1, c2, "css"), (c2, c1, "css")]
        base = c1
    else:
        raise ValueError(f"unknown construction {construction!r}")

    n = base.n
    if cap is None:
        cap = min(c.r // 2 for c, _, _ in code_list)
    best_any = cap + 1
    best_nondeg = cap + 1

    for code, dual_of, mode in code_list:
        q = code.field.q
        if burst_count(n, q, cap) >= guard:
            raise ValueError("enumeration guard exceeded; reduce cap or n")
        zero = (0,) * n
        buckets: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {
            (0,) * code.r: [(zero, 0)]
        }
        for pattern in _burst_patterns(q, cap):
            length = len(pattern)
            for start in range(n - length + 1):
                vec = zero[:start] + pattern + zero[start + length :]
                buckets.setdefault(syndrome(code, vec), []).append((vec, length))
        for bucket in buckets.values():
            if len(bucket) < 2:
                continue
            bucket.sort(key=lambda item: item[1])
            for i1, (v1, l1) in enumerate(bucket):
                if l1 >= best_nondeg:
                    break
                for v2, l2 in bucket[i1 + 1 :]:
                    worst = l2  # sorted: l2 >= l1
                    if worst >= best_nondeg:
                        break
                    diff = tuple(a ^ b for a, b in zip(v1, v2))
                    if not any(diff):
                        continue
                    best_any = min(best_any, worst)
                    if not _harmless(code, diff, mode, dual_of):
                        best_nondeg = min(best_nondeg, worst)

    return min(best_nondeg - 1, cap), min(best_any - 1, cap)

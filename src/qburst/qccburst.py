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
appears at all.

An exhaustive pair enumeration over canonical burst patterns provides an
independent oracle for small lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cycliccode import (
    BurstPattern,
    CyclicCode,
    burst_length,
    css_dual_containing,
    hermitian_dual_containing,
    in_euclidean_dual,
    in_hermitian_dual,
    shortened_check_matrix,
    syndrome,
)
from .matgf import MatrixGF, row_reduce


class NotDualContaining(ValueError):
    """The classical code(s) do not admit the quantum construction."""


@dataclass(frozen=True)
class WindowBlock:
    """ell consecutive columns of the ell-shortened check matrix."""

    code: CyclicCode
    ell: int
    start: int
    block: MatrixGF

    @property
    def positions(self) -> range:
        return range(self.start, self.start + self.ell)


def build_window(code: CyclicCode, ell: int, start: int) -> WindowBlock:
    r, n = code.r, code.n
    if not 1 <= ell <= r // 2:
        raise ValueError(f"window length must be in [1, {r // 2}], got {ell}")
    if not 0 <= start <= n - 2 * ell:
        raise ValueError(f"window start must be in [0, {n - 2 * ell}], got {start}")
    m = shortened_check_matrix(code, ell)
    block = MatrixGF(
        code.field, m.rows, ell, tuple(row[start : start + ell] for row in m.data)
    )
    return WindowBlock(code, ell, start, block)


@dataclass(frozen=True)
class DependencyPairSet:
    """Error pairs (e, f) with equal syndromes forced by a deficient window.

    e is supported inside the window, f inside the last ell positions;
    e + f is a codeword by construction.
    """

    window: WindowBlock
    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def solve_tail(code: CyclicCode, synd: tuple[int, ...], width: int) -> tuple[int, ...]:
    """Unique vector supported on the last `width` positions with the given
    syndrome tail, via back-substitution on the triangular tail of H.

    Requires the first r - width syndrome coordinates (of H v^T) to vanish,
    which holds for any vector supported on positions < n - width whose
    window block annihilates the shortened matrix rows.
    """
    f = code.field
    n, r = code.n, code.r
    hrows = code.H.data
    tail = synd[r - width :]
    sol = [0] * width
    inv0 = f.inv(code.h.coeffs[0])
    for t in range(width):
        acc = tail[t]
        hrow = hrows[r - width + t]
        for u in range(t):
            if sol[u]:
                acc ^= f.mul(hrow[n - width + u], sol[u])
        sol[t] = f.mul(acc, inv0)
    return tuple(sol)


def dependency_pairs(code: CyclicCode, window: WindowBlock) -> DependencyPairSet:
    """The pair set of a window: one pair per free column of its reduction."""
    n, r, ell = code.n, code.r, window.ell
    reduced = row_reduce(window.block)
    pairs = []
    f = code.field
    for free_col in reduced.free_cols:
        e = [0] * n
        combo = reduced.combination[free_col]
        for coeff, pivot_col in zip(combo, reduced.pivot_cols):
            e[window.start + pivot_col] = coeff
        e[window.start + free_col] = 1
        s = code.H.matvec(e)
        if any(s[:r - ell]):
            raise AssertionError("window pair has syndrome outside the tail")
        tail = solve_tail(code, s, ell)
        fvec = [0] * n
        for u, c in enumerate(tail):
            fvec[n - ell + u] = c
        pairs.append((tuple(e), tuple(fvec)))
    return DependencyPairSet(window, tuple(pairs))


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
    if mode == "hermitian":
        return in_hermitian_dual(code, diff)
    if mode == "css":
        return in_euclidean_dual(dual_of if dual_of is not None else code, diff)
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
    f = code.field

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
        m = shortened_check_matrix(code, ell)
        for start in range(0, n - 2 * ell + 1):
            block = MatrixGF(
                f, m.rows, ell, tuple(row[start : start + ell] for row in m.data)
            )
            reduced = row_reduce(block)
            if reduced.rank == ell:
                continue
            if ell0 is None:
                ell0 = ell - 1
            window = WindowBlock(code, ell, start, block)
            for e, fvec in dependency_pairs(code, window).pairs:
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


def _all_bursts(n: int, q: int, max_len: int):
    """Canonical burst patterns (including the zero burst) as vectors."""
    yield (0,) * n, 0
    nonzero = range(1, q)
    for length in range(1, max_len + 1):
        for start in range(0, n - length + 1):
            if length == 1:
                for c in nonzero:
                    yield BurstPattern(start, (c,)).as_vector(n), 1
                continue
            interior = length - 2
            for first in nonzero:
                for last in nonzero:
                    stack = [(first,)]
                    while stack:
                        prefix = stack.pop()
                        if len(prefix) == interior + 1:
                            vec = BurstPattern(start, prefix + (last,)).as_vector(n)
                            yield vec, length
                            continue
                        for c in range(q):
                            stack.append(prefix + (c,))


def _burst_count(n: int, q: int, max_len: int) -> int:
    total = 1 + n * (q - 1)
    for length in range(2, max_len + 1):
        total += (n - length + 1) * (q - 1) ** 2 * q ** (length - 2)
    return total


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
        if _burst_count(n, q, cap) > guard:
            raise ValueError("enumeration guard exceeded; reduce cap or n")
        buckets: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
        for vec, length in _all_bursts(n, q, cap):
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
                    if mode == "hermitian":
                        harmless = in_hermitian_dual(code, diff)
                    else:
                        harmless = in_euclidean_dual(dual_of, diff)
                    if not harmless:
                        best_nondeg = min(best_nondeg, worst)

    return min(best_nondeg - 1, cap), min(best_any - 1, cap)

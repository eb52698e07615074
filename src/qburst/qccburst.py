"""Burst error correction limits of quantum cyclic codes.

`_components` is the one place a construction is decided: it checks the
generator count, dual containment (Hermitian or CSS) and r >= 1, and
returns K with one sweep (code, dual_of) per distinct classical
component.  Below it, with s = `stabilizer_generator(dual_of)`, one rule
holds: admissible iff g | s, and e, f harmlessly confused iff s | e - f.

The degenerate limit L of a component is found by sweeping window
lengths ell = 1, 2, ...: the code corrects all quantum bursts of length
ell provided every ell-column window of the ell-shortened check matrix
has full rank, or every dependency pair arising from a rank-deficient
window is degenerate (s divides the difference of its two members).
The sweep stops at the first ell admitting a nondegenerate pair; the
quantum Reiger bound caps the sweep at floor(r/2).  A single-error
collision x^i = lam x^j (mod g) is, after a cyclic shift, a width-1
window pair, and degeneracy is shift-invariant, so the ell = 1 windows
(run even when the cap is 0) find every such collision.

The nondegenerate limit ell0 is tracked in the same sweep as the last
length before any rank-deficient window appears at all.  `window_pairs`
is the one window kernel: the classical limit (every window of full
rank) and the binary-image limit of quantum Reed-Solomon codes
(`qrsburst`, at width hbar + 1) use it too.

An exhaustive pair enumeration over canonical burst patterns provides an
independent oracle for small lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycliccode import (
    CyclicCode,
    _burst_patterns,
    burst_count,
    css_dual_containing,
    hermitian_dual_containing,
    stabilizer_generator,
    syndrome,
    vector_poly,
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


def _deficient_windows(code: CyclicCode):
    """(width, pairs) of every rank-deficient window, by width 1 .. r // 2
    (width 1 even when r // 2 is 0) and then by start."""
    for width in range(1, max(code.r // 2, 1) + 1) if code.r else ():
        for start in range(code.n - 2 * width + 1):
            rank, pairs = window_pairs(code, width, start)
            if rank < width:
                yield width, pairs


def classical_burst_limit(code: CyclicCode) -> int:
    """Largest b such that every b consecutive columns of the b-shortened
    check matrix are linearly independent; 0 when single errors collide."""
    return next((width - 1 for width, _ in _deficient_windows(code)), code.r // 2)


def degeneracy_check(code: CyclicCode, e, f, *, dual_of: CyclicCode | None = None) -> bool:
    """True when confusing e with f is harmless: the stabilizer generator
    of `dual_of` (the partner code, defaulting to `code` itself) divides
    e - f.  The pair must have equal syndromes."""
    if syndrome(code, e) != syndrome(code, f):
        raise ValueError("degeneracy is only defined for equal-syndrome pairs")
    diff = vector_poly(code, [a ^ b for a, b in zip(e, f)])
    return (diff % stabilizer_generator(dual_of if dual_of is not None else code)).is_zero


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
        return reiger_delta(self.n, self.K, self.L)


def reiger_delta(n: int, K: int, L: int) -> int:
    """Distance n - K - 4L to the quantum Reiger bound."""
    return n - K - 4 * L


def _components(codes, construction: str):
    """Check a quantum construction and return (K, sweeps).

    `codes` is one code, or a sequence of one code (Hermitian) or of one
    or two codes (CSS; one code is paired with itself).  Each sweep is
    (code, dual_of): a classical component whose confusable pairs are
    judged against the stabilizer of `dual_of`.  Two equal codes (every
    Hermitian code) make one sweep, both components being that code.
    """
    codes = (codes,) if isinstance(codes, CyclicCode) else tuple(codes)
    counts = {"hermitian": (1,), "css": (1, 2)}.get(construction)
    if counts is None:
        raise ValueError(f"unknown construction {construction!r}")
    if len(codes) not in counts:
        raise ValueError(f"a {construction} code takes {' or '.join(map(str, counts))} "
                         f"generator(s), got {len(codes)}")
    c1, c2 = codes if len(codes) == 2 else codes * 2
    if construction == "hermitian" and not hermitian_dual_containing(c1):
        raise NotDualContaining(f"{c1!r}: H H^dagger != 0")
    if construction == "css" and not css_dual_containing(c1, c2):
        raise NotDualContaining(f"{c1!r} / {c2!r}: dual containment fails")
    K = c1.k + c2.k - c1.n
    sweeps = ((c1, c2),) if c1.g == c2.g else ((c1, c2), (c2, c1))
    if any(code.r < 1 for code in codes):
        raise ValueError("the construction needs generators of degree >= 1 (r = 0)")
    return K, sweeps


def _component_sweep(code: CyclicCode, dual_of: CyclicCode):
    """One sweep of the limit algorithm against a single classical code.

    Returns (L, ell0, flags): L is the first length admitting a
    nondegenerate pair minus one (or the Reiger cap), ell0 likewise for
    any rank deficiency at all.
    """
    cap = ell0 = code.r // 2
    for ell, pairs in _deficient_windows(code):
        ell0 = min(ell0, ell - 1)  # widths rise, so the first one sets it
        for e, fvec in pairs:
            if not degeneracy_check(code, e, fvec, dual_of=dual_of):
                return ell - 1, ell0, ()
    return cap, ell0, ("cap-limited",)


def qcc_burst_limit(codes, construction: str) -> QccReport:
    """Degenerate and nondegenerate burst limits of a quantum cyclic code
    ('hermitian': one GF(4) code; 'css': one GF(2) code or a pair).

    Each component is swept on its own, and the code corrects what every
    component corrects.
    """
    K, sweeps = _components(codes, construction)
    results = [_component_sweep(*sweep) for sweep in sweeps]
    L = min(L for L, _, _ in results)
    ell0 = min(ell0 for _, ell0, _ in results)
    flags = tuple(sorted(set.intersection(*(set(flags) for _, _, flags in results))))
    gens = tuple(code.g.coeffs for code, _ in sweeps)
    report = QccReport(sweeps[0][0].n, K, L, ell0, construction, gens, flags)
    if report.delta < 0:
        raise AssertionError("computed limit violates the quantum Reiger bound")
    return report


def qcc_burst_limit_hermitian(code: CyclicCode) -> QccReport:
    """Degenerate and nondegenerate burst limits of a GF(4) cyclic code."""
    return qcc_burst_limit(code, "hermitian")


def qcc_burst_limit_css(c1: CyclicCode, c2: CyclicCode | None = None) -> QccReport:
    """Burst limits of a CSS pair (c2 defaults to c1)."""
    return qcc_burst_limit((c1,) if c2 is None else (c1, c2), "css")


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
    _, sweeps = _components(codes, construction)
    n = sweeps[0][0].n
    if cap is None:
        cap = min(code.r // 2 for code, _ in sweeps)
    best_any = cap + 1
    best_nondeg = cap + 1

    for code, dual_of in sweeps:
        s = stabilizer_generator(dual_of)
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
                    diff = vector_poly(code, [a ^ b for a, b in zip(v1, v2)])
                    if diff.is_zero:
                        continue
                    best_any = min(best_any, worst)
                    if not (diff % s).is_zero:
                        best_nondeg = min(best_nondeg, worst)

    return min(best_nondeg - 1, cap), min(best_any - 1, cap)

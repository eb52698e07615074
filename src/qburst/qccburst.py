"""Burst error correction limits of quantum cyclic codes.

`_components` is the one place a construction is decided: it checks the
generator count, dual containment (Hermitian or CSS) and r >= 1, and
returns K with one sweep (code, dual_of) per distinct classical
component.  Below it, with s = `stabilizer_generator(dual_of)`, one rule
holds: admissible iff g | s, and e, f harmlessly confused iff s | e - f.

The limits of a component come from one row reduction per shift.  A
window pair of width w at start s is e = x^s a and f = x^(n-w) b with
deg a, deg b < w, and e, f have equal syndromes iff x^T a = b (mod g),
where T = s + w: the window depends on its shift T alone.  So window
(T, w) is rank deficient iff d(T) < w, where d(T) is the least
max(deg a, deg b) over the nonzero pairs of the shift (the shift-register
view of Matt and Massey, "Determining the burst-correcting limit of
cyclic codes", IEEE TIT 26(3), 1980).  `_shortest_pair` finds d(T) and
its minimal pair from one reduction of the columns x^(T+i) mod g and the
unit vectors, interleaved by degree.  Below r/2 every pair of the shift
is a polynomial multiple of the minimal one, and the stabilizers form an
ideal, so that one pair decides every width at T: it is degenerate iff s
divides e - f.

L is then the least d(T) over the shifts with a nondegenerate minimal
pair, and ell0 the least d(T) over all shifts, each capped at floor(r/2)
by the quantum Reiger bound; the classical limit is ell0 without the
degeneracy test.  A single-error collision x^i = lam x^j (mod g) is a
pair with d(T) = 0, so the sweep looks for one even when the cap is 0.

Shifts T and n - T mirror each other.  g divides x^n - 1, so x^T a = b
(mod g) implies x^(n-T) b = a (mod g): the pairs of shift n - T are
those of T with a and b swapped, and d(n - T) = d(T).  The mirrored
pair's e' - f' is x^(n-T) (f - e) mod x^n - 1, and s divides x^n - 1,
so s divides one iff it divides the other.  The sweep therefore reduces
only the shifts T = 1 .. n // 2 (T = n/2, at even n, is its own mirror).

`window_pairs` keeps the window row reduction itself as an oracle: the
tests check the shift kernel and the Reed-Solomon window kernel
(`qrsburst`, by extended Euclid at width hbar + 1, above r/2) against it.

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
from .matgf import MatrixGF, row_reduce
from .polyring import Polynomial


class NotDualContaining(ValueError):
    """The classical code(s) do not admit the quantum construction."""


# row reduction on purpose: the window oracle of the tests and of perfbench
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


def _power_rows(code: CyclicCode) -> list[tuple[int, ...]]:
    """Row k holds digit k of x^j mod g for j < n.  The powers come by
    packed shift-and-reduce: each is the one before shifted up a digit, its
    digit r cancelled by a multiple of the monic g."""
    m, mask, r = code.field.m, code.field.q - 1, code.r
    gmul = [code.g.scale(c).bits for c in code.field.elements()]
    powers, reg = [], 1
    for _ in range(code.n):
        powers.append([(reg >> (i * m)) & mask for i in range(r)])
        reg <<= m
        reg ^= gmul[reg >> (r * m)]
    return list(zip(*powers))


def _shortest_pair(code: CyclicCode, power_rows, shift: int, width: int):
    """(d, e, f) for the shift T = `shift`, or None when d(T) >= `width`.

    d(T) is the least max(deg a, deg b) over the nonzero pairs with
    x^T a = b (mod g).  One row reduction of the r x 2*width matrix with
    columns x^(T+i) mod g and the unit vector u_i, interleaved by degree i,
    finds it: its first free column p gives d = p // 2, and the column's
    combination is the minimal pair (a, b).  With e = x^(T-d-1) a and
    f = x^(n-d-1) b, e lies in the window of width d + 1 at start T-d-1
    and f in the last d + 1 positions, and the two have equal syndromes.
    """
    r, n = code.r, code.n
    rows = []
    for k, digits in enumerate(power_rows):
        row = [0] * (2 * width)
        row[0::2] = digits[shift:shift + width]
        if k < width:
            row[2 * k + 1] = 1
        rows.append(tuple(row))
    reduced = row_reduce(MatrixGF(code.field, r, 2 * width, tuple(rows)))
    if not reduced.free_cols:
        return None
    free_col = reduced.free_cols[0]
    d = free_col // 2
    pair = [0] * (2 * d + 2)
    pair[free_col] = 1
    for coeff, pivot_col in zip(reduced.combination[free_col], reduced.pivot_cols):
        if pivot_col < free_col:  # the later pivots carry 0
            pair[pivot_col] = coeff
    e = (0,) * (shift - d - 1) + tuple(pair[0::2]) + (0,) * (n - shift)
    f = (0,) * (n - d - 1) + tuple(pair[1::2])
    return d, e, f


def classical_burst_limit(code: CyclicCode) -> int:
    """Largest b such that every b consecutive columns of the b-shortened
    check matrix are linearly independent; 0 when single errors collide.
    It is the sweep's ell0 with no degeneracy test, where L equals ell0."""
    return _component_sweep(code, None)[0]


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


def _component_sweep(code: CyclicCode, dual_of: CyclicCode | None):
    """One sweep of the limit algorithm against a single classical code.

    Returns (L, ell0, flags): L is the least d(T) over the shifts whose
    minimal pair is nondegenerate (or the Reiger cap, flagged), ell0 the
    least d(T) over all shifts.  With `dual_of` None every pair counts as
    nondegenerate, and L is the classical limit.

    Each shift T = 1 .. n // 2 is reduced once, at width min(T, limit),
    where the limit is the best L so far (1 while the cap is 0, so that
    single-error collisions are still found): only a d(T) below it can
    lower L, or lower ell0 below L.  The shifts above n // 2 are skipped:
    shift n - T has the pairs of T swapped, hence the same d and the same
    degeneracy (module docstring).
    """
    n = code.n
    L = ell0 = code.r // 2
    limit = max(L, 1)
    flags = ("cap-limited",)
    power_rows = _power_rows(code)
    for shift in range(1, n // 2 + 1):
        if not limit:
            break
        found = _shortest_pair(code, power_rows, shift, min(shift, limit))
        if found is None:
            continue
        d, e, f = found
        ell0 = min(ell0, d)
        if dual_of is None or not degeneracy_check(code, e, f, dual_of=dual_of):
            L = limit = d
            flags = ()
    return L, ell0, flags


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

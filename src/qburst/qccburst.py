"""Burst error correction limits of quantum cyclic codes.

`_components` is the one place a construction is decided: it checks the
generator count, dual containment (Hermitian or CSS) and r >= 1, and
returns K with one sweep (code, dual_of) per distinct classical
component.  Below it, with s = `dual_of.stabilizer`, one rule holds:
admissible iff g | s, and e, f harmlessly confused iff s | e - f.

The limits of a component come from one row reduction per shift.  A
window pair of width w at start s is e = x^s a and f = x^(n-w) b with
deg a, deg b < w, and e, f have equal syndromes iff x^T a = b (mod g),
where T = s + w: the window depends on its shift T alone.  So window
(T, w) is rank deficient iff d(T) < w, where d(T) is the least
max(deg a, deg b) over the nonzero pairs of the shift (the shift-register
view of Matt and Massey, "Determining the burst-correcting limit of
cyclic codes", IEEE TIT 26(3), 1980).  `_shortest_pair` finds d(T) and
its minimal pair from one reduction of the columns x^(T+i) mod g and the
unit vectors, interleaved by degree and trimmed by the span bound
(below), each with its digits reversed (coefficient k in digit
r - 1 - k).  Reversed, a column is one modulo
the monic reciprocal g* of g: x -> 1/x is a ring isomorphism F[x]/(g) ->
F[x]/(g*), and times the unit x^(r-1) it sends x^k mod g to
x^((r-1-k) mod n) mod g*, so every column of every shift is an entry of
the one list of x^j mod g* (`_x_powers`).  The reversal is a row
permutation, which leaves the reduced form as it is and spares most of
the cancellations (`_shortest_pair`).  Below r/2 every pair of the
shift is a polynomial multiple of the minimal one, and the stabilizers
form an ideal, so that one pair decides every width at T: it is
degenerate iff s divides e - f.  The sweep reads s once, and tests
each pair by one remainder of the packed e - f.

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

It also skips the shifts that the span bound decides.  A pair of width
W <= T at shift T is the nonzero x^T a - b, supported on [0, W) and
[T, T + W): one burst of length T + W.  g has degree r, so it divides
no nonzero burst of length <= r (a cyclic code with r check digits
detects every such burst), and the shift is full rank at every W with
T + W <= r.  The sweep needs no width above its limit, the best L so
far, which is at most r // 2 (or 1), so it reduces only the shifts with
T + limit > r, all of them at width exactly `limit`.  The bound is
tight: at T + W = r + 1 the burst can be c g itself, which fits the two
windows when the digits W .. T - 1 of g are zero.

The same bound trims the matrix of each shift it reduces.  With
lo = max(0, r - T), the powers x^T .. x^(T+lo-1) have degree below r
and are their own residues: the low lo digits of a cancel exactly the
digits T .. r - 1 of x^T a mod g, whatever the rest of a is, and every
pair has degree >= lo, so the digits 0 .. lo may hold anything.  The
reduction keeps the residues x^(T+lo+k) mod g of the rest of a on the
digits lo + 1 .. min(T, r) - 1 alone, a (min(T, r) - 1 - lo) x
(2(W - lo) - 1) matrix in place of r x 2W, and the pair is rebuilt from
its combination (`_shortest_pair`).

`window_pairs` keeps the window row reduction itself as an oracle: the
tests check the shift kernel and the Reed-Solomon window kernel
(`qrsburst`, by a shift basis at width hbar + 1, above r/2) against it,
and judge its pairs by `degeneracy_check`.

An exhaustive pair enumeration over canonical burst patterns provides an
independent oracle for small lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .cycliccode import (
    CyclicCode,
    _burst_patterns,
    burst_count,
    css_dual_containing,
    hermitian_dual_containing,
    syndrome,
    vector_poly,
)
from .galois import _times
from .matgf import MatrixGF, row_reduce
from .polyring import Polynomial, _x_powers


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


def _shift_matrix(code: CyclicCode, powers: list[int], shift: int, width: int) -> MatrixGF:
    """The matrix of the shift T = `shift` at width W = `width`, trimmed by
    the span bound (module docstring); it needs lo < W <= min(T, r), with
    lo = max(0, r - T).  Its columns are c_k = x^(max(T, r) + k) mod g for
    k < W - lo and the unit vectors u_k on digit lo + k for 1 <= k < W - lo,
    in the order c_0, c_1, u_1, c_2, u_2, ..., and its rows are the digits
    lo + 1 .. min(T, r) - 1, reversed: digit j in row r - 1 - lo - j.  So
    c_k is x^(r - 1 - max(T, r) - k) mod g* (`powers` holds x^j mod g* for
    j < n) moved down lo digits, and u_k sits in row r - 1 - 2 lo - k."""
    n, r, m = code.n, code.r, code.field.m
    lo = max(0, r - shift)
    rows = max(0, r - 1 - 2 * lo)  # no digit at all when r = 0 (g = 1)
    low = (1 << rows * m) - 1
    first = r - 1 - shift - lo  # c_0
    columns = [(powers[first % n] >> lo * m) & low]
    for k in range(1, width - lo):
        columns += (powers[(first - k) % n] >> lo * m) & low, 1 << (rows - k) * m
    return MatrixGF(code.field, rows, tuple(columns))


def _shortest_pair(code: CyclicCode, powers: list[int], shift: int, width: int):
    """(d, e, f) for the shift T = `shift`, or None when d(T) >= `width`;
    `width` must be at most min(T, r).

    d(T) is the least max(deg a, deg b) over the nonzero pairs with
    x^T a = b (mod g).  With lo = max(0, r - T) and a = a_lo + x^lo a_hi,
    deg a_lo < lo, it is the least d >= lo for which a nonzero a_hi of
    degree <= d - lo makes the digits d + 1 .. min(T, r) - 1 of
    Q = x^(T+lo) a_hi mod g vanish (module docstring).  One row reduction
    of `_shift_matrix` finds it: its first free column p gives
    d = lo + (p + 1) // 2, and the coefficients of the c_k in its
    combination are a_hi.  Then b is Q's digits below T, and a is x^lo a_hi
    plus a_lo, Q's digits T .. r - 1 moved down T, which cancels them.
    With e = x^(T-d-1) a and f = x^(n-d-1) b, packed, e lies in the window
    of width d + 1 at start T-d-1 and f in the last d + 1 positions, and
    the two have equal syndromes.

    The matrix, and Q, are read reversed from `powers`.  Permuting the
    rows changes no dependency among the columns, nor its coefficients,
    but in the natural order every residue takes its pivot on the lowest
    digits and cancels against almost every earlier pivot, while reversed
    the unit vectors sit where no residue pivot reaches until the shift
    is nearly deficient.
    """
    n, r, field = code.n, code.r, code.field
    m = field.m
    lo = max(0, r - shift)
    if width <= lo:
        return None  # the span bound: T + W <= r
    reduced = row_reduce(_shift_matrix(code, powers, shift, width))
    if not reduced.free_cols:
        return None
    free_col = reduced.free_cols[0]
    d = lo + (free_col + 1) // 2
    # column 0 is c_0, column 2k - 1 is c_k and column 2k is u_k
    coeffs = dict(zip(reduced.pivot_cols, reduced.combination[free_col]))
    coeffs[free_col] = 1
    first = r - 1 - shift - lo
    a_hi = q = 0
    for k in range(d - lo + 1):
        c = coeffs.get(max(2 * k - 1, 0))
        if c:
            a_hi |= c << k * m
            power = powers[(first - k) % n]
            q ^= power if c == 1 else _times(field.doublings(power), c)
    # q holds Q with digit j in digit r - 1 - j; the reciprocal of x^r + q
    # is 1 + x Q
    Q = Polynomial(field, q | 1 << r * m).reciprocal().bits >> m
    a = (a_hi << lo * m) ^ (Q >> shift * m)
    b = Q & (1 << shift * m) - 1
    return d, a << (shift - d - 1) * m, b << (n - d - 1) * m


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
    return (diff % (dual_of if dual_of is not None else code).stabilizer).is_zero


@dataclass(frozen=True)
class QccReport:
    """Computed burst limits of one quantum cyclic code."""

    n: int
    K: int
    L: int
    ell0: int
    construction: str  # "hermitian" | "css"
    generators: tuple[Polynomial, ...]  # the codes' own g
    flags: tuple[str, ...] = ()

    @property
    def delta(self) -> int:
        return reiger_delta(self.n, self.K, self.L)

    @cached_property
    def notation(self) -> tuple[str, ...]:
        """The generators in table notation, written once (`searchcli`)."""
        return tuple(map(_table_notation, self.generators))


def _table_notation(p: Polynomial) -> str:
    """Table notation: "(c^e ...)", nonzero c by decreasing exponent e."""
    terms = [f"{c}^{e}" for e, c in enumerate(p.coeffs) if c][::-1]
    if not terms:
        raise ValueError("cannot emit the zero polynomial")
    return "(" + " ".join(terms) + ")"


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


def _component_sweep(code: CyclicCode, dual_of: CyclicCode | None, floor: int = 0):
    """One sweep of the limit algorithm against a single classical code.

    Returns (L, ell0, flags): L is the least d(T) over the shifts whose
    minimal pair is nondegenerate (or the Reiger cap, flagged), ell0 the
    least d(T) over all shifts.  With `dual_of` None every pair counts as
    nondegenerate, and L is the classical limit.

    L only falls as the sweep goes on, so once it is below `floor` the
    sweep returns at once, before any shift when the cap itself is below
    it.  Such a result is partial: its L is below `floor` but may be above
    the exact one, and its ell0 and flags are not final.  With the default
    floor 0 the result is exact.

    Each shift is reduced at most once, at width `limit`, the best L so
    far (1 while the cap is 0, so that single-error collisions are still
    found): only a d(T) below it can lower L, or lower ell0 below L.  A
    pair of width W <= T at shift T is the nonzero x^T a - b, one burst of
    length T + W, and g divides no burst of length <= r, so a shift with
    T + limit <= r is full rank and is skipped.  The limit is at most
    r // 2 (or 1), so a shift with T < limit has 2T <= r and is skipped
    too: every reduced shift has T >= limit.  Nor are the shifts above
    n // 2 reduced: shift n - T has the pairs of T swapped, hence
    the same d and the same degeneracy (module docstring).
    """
    n, r = code.n, code.r
    L = ell0 = r // 2
    limit = max(L, 1)
    flags = ("cap-limited",)
    if L < floor:
        return L, ell0, flags
    powers = list(islice(_x_powers(code.g.reciprocal().monic()), n))
    s = None if dual_of is None else dual_of.stabilizer
    for shift in range(1, n // 2 + 1):
        if not limit:
            break
        if shift + limit <= r:
            continue  # the span bound: full rank
        found = _shortest_pair(code, powers, shift, limit)
        if found is None:
            continue
        d, e, f = found
        ell0 = min(ell0, d)
        if s is not None and (Polynomial(code.field, e ^ f) % s).is_zero:
            continue  # a harmless pair
        L = limit = d
        flags = ()
        if L < floor:
            break
    return L, ell0, flags


def qcc_burst_limit(codes, construction: str) -> QccReport:
    """Degenerate and nondegenerate burst limits of a quantum cyclic code
    ('hermitian': one GF(4) code; 'css': one GF(2) code or a pair).

    Each component is swept on its own, and the code corrects what every
    component corrects.
    """
    return _sweep_report(*_components(codes, construction), construction)


def _sweep_report(K: int, sweeps, construction: str, floor: int = 0) -> QccReport:
    """The report of a checked construction (`_components` gives K and the
    sweeps).  Each sweep gets `floor`, so a report whose L is below it is
    partial (see `_component_sweep`); floor 0 gives the exact report."""
    results = [_component_sweep(*sweep, floor) for sweep in sweeps]
    L = min(L for L, _, _ in results)
    ell0 = min(ell0 for _, ell0, _ in results)
    flags = tuple(sorted(set.intersection(*(set(flags) for _, _, flags in results))))
    gens = tuple(code.g for code, _ in sweeps)
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
        s = dual_of.stabilizer
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

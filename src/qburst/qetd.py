"""Error-trapping decoder for quantum cyclic codes, and the exhaustive
burst-decoding census.

Decoding works on the syndrome polynomial S(x) = e(x) mod g(x).  The
syndrome is cyclically shifted (multiplication by x modulo g) until the
error burst sits flush against the top register stage; the shift whose
trapped burst is shortest identifies a minimum-burst coset
representative, which is then rotated back into place.  Degenerate
decodes (representative differing from the channel error by a
stabilizer element) count as successes for a quantum code.

The census enumerates every Pauli burst pattern up to a length cutoff,
decodes each one, and tallies exact / degenerate / failed decodes.  The
hot path packs field vectors two bits per coordinate, so vector addition
is a single XOR and coset membership a set lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycliccode import (
    CyclicCode,
    code_from_generator,
    in_euclidean_dual,
    in_hermitian_dual,
    syndrome,
)
from .galois import GF4
from .polyring import Polynomial

# ---------------------------------------------------------------------------
# Trap search and decoding (public, polynomial-level API)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QetdState:
    """Outcome of the trap search over all n cyclic shifts of a syndrome."""

    S: Polynomial
    z: int  # shortest trapped burst length
    s: int  # longest run of empty high stages, r - z
    v: int  # shift index achieving the trap


def _trap_search(S: Polynomial, code: CyclicCode) -> QetdState:
    """Find the shift putting the shortest burst flush with the top stage.

    A shift counts only when the top register stage (coefficient of
    x^(r-1)) is occupied; the trapped length is then r minus the number
    of empty low stages.  Ties keep the smallest shift index.
    """
    g = code.g
    f = code.field
    r, n = code.r, code.n
    best_z = None
    best_v = 0
    cur = S
    x = Polynomial.x_pow(f, 1)
    for i in range(n):
        if i:
            cur = (cur * x) % g
        if cur.coeff(r - 1):
            low = next(j for j, c in enumerate(cur.coeffs) if c)
            z = r - low
            if best_z is None or z < best_z:
                best_z, best_v = z, i
    if best_z is None:
        raise AssertionError("nonzero syndrome never reached the top stage")
    return QetdState(S, best_z, r - best_z, best_v)


def trap_decode(S: Polynomial, code: CyclicCode) -> tuple[int, ...]:
    """Decode a syndrome polynomial to a minimum-burst error vector.

    Returns the all-zero vector for a zero syndrome.  The decoded vector
    always reproduces the input syndrome.
    """
    n = code.n
    if S.field != code.field:
        raise ValueError("syndrome field does not match the code")
    if S.degree >= code.r:
        raise ValueError(f"syndrome degree must be below r={code.r}")
    if S.is_zero:
        return (0,) * n
    state = _trap_search(S, code)
    trapped = (Polynomial.x_pow(code.field, state.v) * S) % code.g
    out = [0] * n
    for j, c in enumerate(trapped.coeffs):
        if c:
            out[(j + n - state.v) % n] = c
    return tuple(out)


def classify(
    code: CyclicCode,
    e,
    ehat,
    mode: str = "hermitian",
    dual_of: CyclicCode | None = None,
) -> str:
    """'exact', 'degenerate', or 'failure' for a decode of e's syndrome."""
    if syndrome(code, e) != syndrome(code, ehat):
        raise ValueError("classification requires equal syndromes")
    e = tuple(e)
    ehat = tuple(ehat)
    if e == ehat:
        return "exact"
    diff = tuple(a ^ b for a, b in zip(e, ehat))
    if mode == "hermitian":
        harmless = in_hermitian_dual(code, diff)
    elif mode == "css":
        harmless = in_euclidean_dual(dual_of if dual_of is not None else code, diff)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return "degenerate" if harmless else "failure"


def css_decode(
    S_X: Polynomial,
    S_Z: Polynomial,
    c1: CyclicCode,
    c2: CyclicCode,
) -> tuple[int, ...]:
    """Decode bit-flip and phase-flip syndromes separately and recombine
    into one quaternary pattern (bit 0 = X component, bit 1 = Z)."""
    ex = trap_decode(S_X, c1)
    ez = trap_decode(S_Z, c2)
    return tuple(x | (z << 1) for x, z in zip(ex, ez))


# ---------------------------------------------------------------------------
# Exhaustive burst census (packed fast path)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QetdStats:
    """Decoding census over all bursts of length 1..lmax."""

    n: int
    K: int
    lmax: int
    total: int  # N
    exact: int  # N_0
    decoded: int  # N_D = exact + degenerate

    @property
    def decoded_ratio(self) -> float:
        return self.decoded / self.total

    @property
    def exact_ratio(self) -> float:
        return self.exact / self.total

    @property
    def degeneracy_gain(self) -> float:
        return self.decoded / self.exact if self.exact else float("inf")


def burst_census_size(n: int, lmax: int) -> int:
    """Closed-form count of quaternary bursts of length 1..lmax."""
    if lmax < 1:
        return 0
    total = 3 * n
    for length in range(2, lmax + 1):
        total += (n - length + 1) * 9 * 4 ** (length - 2)
    return total


class _PackedDecoder:
    """GF(4) trap decoder on syndromes packed two bits per coefficient."""

    def __init__(self, code: CyclicCode):
        f = code.field
        if f.m != 2:
            raise ValueError("packed decoder works on GF(4) codes")
        self.code = code
        self.n = code.n
        self.r = code.r
        # c * (g - x^r) packed, used to reduce the overflow stage.
        self.gtail = {
            c: _pack(tuple(f.mul(c, gc) for gc in code.g.coeffs[:-1]))
            for c in (1, 2, 3)
        }
        self.top_shift = 2 * (self.r - 1)
        self._memo: dict[int, int] = {0: 0}
        self._memo_cap = 1 << 20

    def decode(self, packed_s: int) -> int:
        """Packed error vector (2 bits per position) for a packed syndrome."""
        hit = self._memo.get(packed_s)
        if hit is not None:
            return hit
        n, r = self.n, self.r
        mask = (1 << (2 * r)) - 1
        best_z = None
        best_v = 0
        best_trapped = 0
        cur = packed_s
        for i in range(n):
            if i:
                cur <<= 2
                top = (cur >> (2 * r)) & 3
                if top:
                    cur = (cur & mask) ^ self.gtail[top]
            if (cur >> self.top_shift) & 3:
                low = _low_index(cur)
                z = r - low
                if best_z is None or z < best_z:
                    best_z, best_v, best_trapped = z, i, cur
        if best_z is None:
            raise AssertionError("nonzero syndrome never reached the top stage")
        out = 0
        trapped = best_trapped
        j = 0
        while trapped:
            c = trapped & 3
            if c:
                out |= c << (2 * ((j + n - best_v) % n))
            trapped >>= 2
            j += 1
        if len(self._memo) < self._memo_cap:
            self._memo[packed_s] = out
        return out


def _pack(vec) -> int:
    out = 0
    for i, c in enumerate(vec):
        if c:
            out |= c << (2 * i)
    return out


def _position_syndrome_tables(code: CyclicCode) -> list[list[int]]:
    """tables[pos][digit] = packed syndrome of digit * x^pos modulo g."""
    f = code.field
    g = code.g
    x = Polynomial.x_pow(f, 1)
    xpow = Polynomial.one(f)
    tables = []
    for pos in range(code.n):
        if pos:
            xpow = (xpow * x) % g
        per_digit = [0] * 4
        for c in range(1, 4):
            per_digit[c] = _pack(tuple(f.mul(c, v) for v in xpow.coeffs))
        tables.append(per_digit)
    return tables


def _low_index(packed: int) -> int:
    return ((packed & -packed).bit_length() - 1) // 2


def _dual_codeword_set(code: CyclicCode, hermitian: bool) -> frozenset[int]:
    """All packed elements of the (Hermitian or Euclidean) dual."""
    f = code.field
    n = code.n
    span: set[tuple[int, ...]] = {(0,) * n}
    for row in code.H.data:
        scaled_rows = [tuple(f.mul(c, v) for v in row) for c in range(1, f.q)]
        new = set(span)
        for base in span:
            for srow in scaled_rows:
                new.add(tuple(a ^ b for a, b in zip(base, srow)))
        span = new
        # Repeated closure keeps span a subspace because rows are processed
        # one at a time with all scalar multiples.
    if hermitian:
        span = {tuple(f.conj(v) for v in vec) for vec in span}
    return frozenset(_pack(vec) for vec in span)


def _burst_patterns(lmax: int):
    """Digit tuples (nonzero endpoints) for every burst length 1..lmax."""
    for length in range(1, lmax + 1):
        if length == 1:
            for c in (1, 2, 3):
                yield (c,)
            continue
        stack: list[tuple[int, ...]] = [(c,) for c in (1, 2, 3)]
        while stack:
            prefix = stack.pop()
            if len(prefix) == length - 1:
                for c in (1, 2, 3):
                    yield prefix + (c,)
                continue
            for c in (0, 1, 2, 3):
                stack.append(prefix + (c,))


def burst_census(
    code: CyclicCode,
    construction: str,
    lmax: int | None = None,
    code2: CyclicCode | None = None,
    guard: int = 10**9,
) -> QetdStats:
    """Decode every Pauli burst of length up to lmax and tally outcomes.

    Pauli digits use the GF(4) encoding (1 = bit flip, 2 = phase flip,
    3 = both).  Hermitian codes decode the quaternary pattern directly;
    CSS codes decode it as one GF(4) polynomial over the binary generator
    (equivalent to trapping both component syndromes in one register)
    and judge degeneracy component-wise against the opposite code's dual.
    """
    if construction == "hermitian":
        if code.field.m != 2:
            raise ValueError("Hermitian census expects a GF(4) code")
        gf4_code = code
        K = 2 * code.k - code.n
    elif construction == "css":
        if code.field.m != 1:
            raise ValueError("CSS census expects a GF(2) code")
        if code2 is None:
            code2 = code
        if code2.g != code.g:
            raise NotImplementedError("census supports single-code CSS pairs")
        gf4_code = code_from_generator(
            code.n, Polynomial.make(GF4, code.g.coeffs)
        )
        K = code.k + code2.k - code.n
    else:
        raise ValueError(f"unknown construction {construction!r}")

    n = code.n
    if lmax is None:
        lmax = (n - K) // 2
    if not 1 <= lmax <= n:
        raise ValueError(f"lmax must be in 1..{n}, got {lmax}")
    total_expected = burst_census_size(n, lmax)
    if total_expected > guard:
        raise ValueError(
            f"census of {total_expected} bursts exceeds the guard ({guard})"
        )

    decoder = _PackedDecoder(gf4_code)
    digit_syndromes = _position_syndrome_tables(gf4_code)

    # Coset membership by set lookup while the dual fits in memory; very
    # large duals instead test the conjugated difference against the dual
    # code's own syndrome map (packed per-position tables, XOR to zero).
    set_limit = 1 << 20
    if construction == "hermitian":
        if code.field.q ** code.r <= set_limit:
            stabilizer = _dual_codeword_set(code, hermitian=True)

            def is_degenerate(diff_packed: int) -> bool:
                return diff_packed in stabilizer

        else:
            dual_code = code_from_generator(code.n, code.dual_g)
            dual_tables = _position_syndrome_tables(dual_code)
            odd_mask = _pack((2,) * n)

            def is_degenerate(diff_packed: int) -> bool:
                # conjugation swaps the values 2 and 3 in every position
                conj = diff_packed ^ ((diff_packed & odd_mask) >> 1)
                acc = 0
                pos = 0
                while conj:
                    d = conj & 3
                    if d:
                        acc ^= dual_tables[pos][d]
                    conj >>= 2
                    pos += 1
                return acc == 0

    else:
        dual1 = _dual_codeword_set(code2, hermitian=False)   # judges X part
        dual2 = _dual_codeword_set(code, hermitian=False)    # judges Z part
        x_mask = _pack((1,) * n)

        def is_degenerate(diff_packed: int) -> bool:
            xpart = diff_packed & x_mask
            zpart = (diff_packed >> 1) & x_mask
            return xpart in dual1 and zpart in dual2

    total = exact = decoded = 0
    for pattern in _burst_patterns(lmax):
        length = len(pattern)
        for start in range(0, n - length + 1):
            synd = 0
            err = 0
            for off, digit in enumerate(pattern):
                if digit:
                    synd ^= digit_syndromes[start + off][digit]
                    err |= digit << (2 * (start + off))
            total += 1
            ehat = decoder.decode(synd)
            if ehat == err:
                exact += 1
                decoded += 1
            elif is_degenerate(ehat ^ err):
                decoded += 1

    if total != total_expected:
        raise AssertionError("census enumeration does not match the closed form")
    return QetdStats(n, K, lmax, total, exact, decoded)

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
hot path packs each burst two bits per coordinate, together with its
syndromes modulo g and modulo the stabilizer generator, so adding a digit
is a single XOR and the stabilizer test one comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycliccode import CyclicCode, _burst_patterns, burst_count, code_from_generator
from .galois import GF4
from .polyring import Polynomial
from .qccburst import _components

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


class _PackedDecoder:
    """GF(4) trap decoder on syndromes packed two bits per coefficient.

    ``image[pos][digit]`` is the packed word emitted for a decoded
    ``digit`` at ``pos``; a decode is the XOR of those words.
    """

    def __init__(self, code: CyclicCode, image: list[list[int]]):
        f = code.field
        if f.m != 2:
            raise ValueError("packed decoder works on GF(4) codes")
        self.n = code.n
        self.r = code.r
        self.image = image
        # c * (g - x^r) packed, used to reduce the overflow stage.
        self.gtail = {
            c: _pack(tuple(f.mul(c, gc) for gc in code.g.coeffs[:-1]))
            for c in (1, 2, 3)
        }
        self.top_shift = 2 * (self.r - 1)
        self._memo: dict[int, int] = {0: 0}
        self._memo_cap = 1 << 20

    def decode(self, packed_s: int) -> int:
        """Packed decoded word (the XOR of its image entries) for a packed
        syndrome."""
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
                out ^= self.image[(j + n - best_v) % n][c]
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


def _stabilizer(code: CyclicCode, mode: str) -> CyclicCode:
    """The stabilizer as a GF(4) cyclic code.  Its generator s is the
    conjugated dual generator for a Hermitian code, and the binary dual
    generator read over GF(4) for a CSS code: X + wZ is a stabilizer iff
    X and Z both lie in the binary dual."""
    s = code.dual_g.conjugate() if mode == "hermitian" else code.dual_g
    return code_from_generator(code.n, Polynomial.make(GF4, s.coeffs))


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
    (equivalent to trapping both component syndromes in one register;
    only single-code CSS pairs are supported).  A decode ehat of a
    burst e is exact when ehat == e, and degenerate when ehat - e is a
    stabilizer: when ehat and e have equal syndromes modulo the
    stabilizer generator s (see `_stabilizer`).  Raises
    NotDualContaining when the code admits no quantum construction.
    """
    K, sweeps = _components(code if code2 is None else (code, code2), construction)
    if len(sweeps) > 1:
        raise NotImplementedError("census supports single-code CSS pairs")
    ((code, _, mode),) = sweeps
    n = code.n
    if lmax is None:
        lmax = (n - K) // 2
    if not 1 <= lmax <= n:
        raise ValueError(f"lmax must be in 1..{n}, got {lmax}")
    total_expected = burst_count(n, 4, lmax)
    if total_expected > guard:
        raise ValueError(
            f"census of {total_expected} bursts exceeds the guard ({guard})"
        )

    stabilizer = _stabilizer(code, mode)
    gf4_code = code_from_generator(n, Polynomial.make(GF4, code.g.coeffs))
    # table[pos][digit] packs, from bit 0 up: the digit at pos, its
    # syndrome modulo s (from bit 2n) and its syndrome modulo g (from top).
    top = 2 * (n + stabilizer.r)
    stab_tables = _position_syndrome_tables(stabilizer)
    g_tables = _position_syndrome_tables(gf4_code)
    table = [
        [(d << 2 * pos) | (stab_tables[pos][d] << 2 * n) | (g_tables[pos][d] << top)
         for d in range(4)]
        for pos in range(n)
    ]
    low = (1 << top) - 1
    decode = _PackedDecoder(gf4_code, [[word & low for word in row] for row in table]).decode
    s_syndrome = 1 << 2 * n  # lowest bit of the syndrome modulo s

    total = exact = decoded = 0
    for pattern in _burst_patterns(4, lmax):
        length = len(pattern)
        for start in range(0, n - length + 1):
            acc = 0
            for off, digit in enumerate(pattern):
                if digit:
                    acc ^= table[start + off][digit]
            total += 1
            # below bit 2n: ehat - e; above it: their syndromes modulo s, XORed
            miss = decode(acc >> top) ^ (acc & low)
            if miss == 0:
                exact += 1
                decoded += 1
            elif miss < s_syndrome:
                decoded += 1

    if total != total_expected:
        raise AssertionError("census enumeration does not match the closed form")
    return QetdStats(n, K, lmax, total, exact, decoded)

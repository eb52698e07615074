"""Error-trapping decoder for quantum cyclic codes, and the exhaustive
burst-decoding census.

Decoding works on the syndrome polynomial S(x) = e(x) mod g(x).  The
syndrome is cyclically shifted (multiplication by x modulo g) until the
error burst sits flush against the top register stage; the shift whose
trapped burst is shortest identifies a minimum-burst coset
representative, which is then rotated back into place.  Degenerate
decodes (representative differing from the channel error by a
stabilizer element, i.e. a multiple of `stabilizer_generator(dual_of)`)
count as successes for a quantum code.

The census decodes every Pauli burst up to a length cutoff and tallies
exact / degenerate / failed decodes.  It traps each pattern p once, not
once per start: x^t p has syndrome x^t S0 mod g, and x^n = 1 modulo g,
so start t sees the shifted syndromes of S0 read cyclically from shift t
and decodes at the first tied shortest trap k >= t (wrapping round), to
x^t times the decode at k.  Exactness and stabilizer membership are
shift-invariant, so tie k classifies the interval of starts that pick it.
A codeword (zero syndrome) decodes to 0 at every start.  The decoder and
the stabilizer code are GF(4)-linear, so c p decodes like p: only the
patterns whose first digit is 1 are trapped, each counted three times.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycliccode import CyclicCode, burst_count, stabilizer_generator
from .galois import GF4, _xor_sums
from .polyring import Polynomial
from .qccburst import _components

# ---------------------------------------------------------------------------
# The polynomial-level decoder: the oracle that the decoder-invariant
# acceptance test and the census tests check the packed census against
# ---------------------------------------------------------------------------


def _trap_search(S: Polynomial, code: CyclicCode) -> tuple[int, int]:
    """Find the shift putting the shortest burst flush with the top stage.

    A shift counts only when the top register stage (coefficient of
    x^(r-1)) is occupied; the trapped length is then r minus the number
    of empty low stages.  Returns (z, v): the shortest trapped length and
    the shift that traps it.  Ties keep the smallest shift index.
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
    return best_z, best_v


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
    _, v = _trap_search(S, code)
    trapped = (Polynomial.x_pow(code.field, v) * S) % code.g
    out = [0] * n
    for j, c in enumerate(trapped.coeffs):
        if c:
            out[(j + n - v) % n] = c
    return tuple(out)


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

    def __init__(self, n: int, g: Polynomial, image: list[list[int]]):
        self.n = n
        self.r = g.degree
        # chunks[pos][v]: the image of the four digits of v at pos..pos+3
        self.chunks = [
            _xor_sums([image[(pos + t) % self.n] for t in range(4)]) for pos in range(self.n)
        ]
        # c * g packed: XORed in after a shift, it clears an overflow digit c.
        self.gmul = [g.scale(c).bits for c in range(4)]

    def ties(self, packed_s: int) -> list[tuple[int, int]]:
        """Every shift whose register traps the shortest burst, with that
        register, in increasing shift order.  A zero syndrome decodes to 0,
        as the single tie (0, 0)."""
        if not packed_s:
            return [(0, 0)]
        overflow, top_shift, gmul = 2 * self.r, 2 * (self.r - 1), self.gmul
        # a register ties the best one when its stages below the best's
        # lowest occupied stage are empty, and beats it when that is too
        tie_mask = beat_mask = 0
        ties: list[tuple[int, int]] = []
        cur = packed_s
        for i in range(self.n):
            if not cur & tie_mask and cur >> top_shift:
                if cur & beat_mask:
                    ties.append((i, cur))
                else:
                    low = (cur & -cur).bit_length() - 1 & ~1  # 2 * lowest stage
                    tie_mask, beat_mask = (1 << low) - 1, (4 << low) - 1
                    ties = [(i, cur)]
            cur <<= 2
            cur ^= gmul[cur >> overflow]
        if not ties:
            raise AssertionError("nonzero syndrome never reached the top stage")
        return ties

    def word(self, shift: int, trapped: int) -> int:
        """Packed decoded word (the XOR of its image entries) of a register
        trapped after ``shift`` shifts: the register rotated back."""
        n = self.n
        out = 0
        pos = n - shift
        while trapped:
            out ^= self.chunks[pos % n][trapped & 255]
            trapped >>= 8
            pos += 4
        return out


def _position_syndrome_tables(n: int, modulus: Polynomial) -> list[list[int]]:
    """tables[pos][digit] = packed digit * x^pos modulo a GF(4) polynomial."""
    rems = [Polynomial.x_pow(GF4, pos) % modulus for pos in range(n)]
    return [[rem.scale(d).bits for d in range(4)] for rem in rems]


def _unit_bursts(table: list[list[int]], length: int):
    """Packed words at start 0 of every burst of this length whose first
    digit is 1 (and, past length 1, whose last digit is nonzero).  Each is
    a head (the first half of the digits) XOR a tail, so the lists held
    are about the square root of the pattern count."""
    rows = [table[0][1:2], *table[1 : length - 1], table[length - 1][1:]][:length]
    heads, tails = _xor_sums(rows[: (length + 1) // 2]), _xor_sums(rows[(length + 1) // 2 :])
    return (head ^ tail for head in heads for tail in tails)


def burst_census(
    code: CyclicCode,
    construction: str,
    lmax: int | None = None,
    guard: int = 10**9,
) -> QetdStats:
    """Decode every Pauli burst of length up to lmax and tally outcomes.

    Pauli digits use the GF(4) encoding (1 = bit flip, 2 = phase flip,
    3 = both).  Hermitian codes decode the quaternary pattern directly.
    A CSS code is the binary code paired with itself; its pattern is
    decoded as one GF(4) polynomial over the binary generator, which
    traps both component syndromes in one register.  A decode ehat of a
    burst e is exact when ehat == e, and degenerate when ehat - e is a
    stabilizer: when ehat and e have equal syndromes modulo the stabilizer
    generator s read over GF(4) (X + wZ is a multiple of a binary s iff X
    and Z both are).  Raises
    NotDualContaining when the code admits no quantum construction.
    One trap search per pattern with first digit 1 decides every start
    of it and of its GF(4) multiples (see the module docstring).
    """
    K, ((code, dual_of),) = _components(code, construction)
    n = code.n
    if lmax is None:
        lmax = (n - K) // 2
    if not 1 <= lmax <= n:
        raise ValueError(f"lmax must be in 1..{n}, got {lmax}")
    total_expected = burst_count(n, 4, lmax)
    if total_expected > guard:
        raise ValueError(f"census of {total_expected} bursts exceeds the guard ({guard})")

    s = Polynomial.make(GF4, stabilizer_generator(dual_of).coeffs)
    g = Polynomial.make(GF4, code.g.coeffs)
    # table[pos][digit] packs, from bit 0 up: the digit at pos, its
    # syndrome modulo s (from bit 2n) and its syndrome modulo g (from top).
    top = 2 * (n + s.degree)
    rows = zip(_position_syndrome_tables(n, s), _position_syndrome_tables(n, g))
    table = [
        [(d << 2 * pos) | (s_row[d] << 2 * n) | (g_row[d] << top) for d in range(4)]
        for pos, (s_row, g_row) in enumerate(rows)
    ]
    low = (1 << top) - 1
    decoder = _PackedDecoder(n, g, [[word & low for word in row] for row in table])
    s_syndrome = 1 << 2 * n  # lowest bit of the syndrome modulo s

    # counts over the patterns with first digit 1, at starts 0..last
    total = exact = decoded = 0
    for length in range(1, lmax + 1):
        last = n - length
        for acc in _unit_bursts(table, length):
            ties = decoder.ties(acc >> top)
            shifts = [k for k, _ in ties]
            # starts prev+1..k pick tie k; those after the last tie wrap round
            counts = [min(k, last) - prev for prev, k in zip([-1] + shifts, shifts) if prev < last]
            counts[0] += max(0, last - shifts[-1])
            total += sum(counts)
            e = acc & low
            for (k, trapped), count in zip(ties, counts):
                # below bit 2n: ehat - e; above it: their syndromes modulo s, XORed
                miss = decoder.word(k, trapped) ^ e
                exact += count if miss == 0 else 0
                decoded += count if miss < s_syndrome else 0

    total, exact, decoded = 3 * total, 3 * exact, 3 * decoded
    if total != total_expected:
        raise AssertionError("census enumeration does not match the closed form")
    return QetdStats(n, K, lmax, total, exact, decoded)

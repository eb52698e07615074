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

A pattern of length up to r = deg g is its own syndrome, so the registers
R_j = x^j p mod g of one walk include every pattern on p's syndrome
orbit: each R_j with a nonzero lowest digit c and degree below lmax is
c times a pattern q, whose own walk is c^-1 R_j, c^-1 R_(j+1), ...  So
one walk decides them all.  Pattern q meets tie k after k - j (mod n)
shifts, and comparing its decode there with q, rotated back by j, is
comparing x^-k R_k with x^-j R_j.  A mark byte per pattern keeps each to
one orbit.  Patterns longer than r, reached only with an explicit lmax
above r, are not their own syndromes, and get one walk each.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, islice

from .cycliccode import CyclicCode, burst_count, stabilizer_generator
from .galois import GF4, _xor_sums
from .polyring import Polynomial, _x_powers
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
    """The census's GF(4) trap decoder, on words packed two bits per digit.

    ``table[pos][digit]`` packs, from bit 0 up: the digit at pos, its
    syndrome modulo the stabilizer generator s (from bit 2n) and its
    syndrome modulo g (from bit ``top``).  A decoded word is the XOR of
    the entries' parts below ``top``: ehat and its syndrome modulo s.
    """

    def __init__(self, code: CyclicCode, dual_of: CyclicCode):
        n = self.n = code.n
        s = Polynomial.make(GF4, stabilizer_generator(dual_of).coeffs)
        g = Polynomial.make(GF4, code.g.coeffs)
        self.r = g.degree
        top = self.top = 2 * (n + s.degree)
        rows = zip(_position_syndrome_tables(n, s), _position_syndrome_tables(n, g))
        self.table = [
            [(d << 2 * pos) | (s_row[d] << 2 * n) | (g_row[d] << top) for d in range(4)]
            for pos, (s_row, g_row) in enumerate(rows)
        ]
        low = (1 << top) - 1
        image = [[word & low for word in row] for row in self.table]
        # chunks[pos][v]: the image of the four digits of v at pos..pos+3
        self.chunks = [_xor_sums([image[(pos + t) % n] for t in range(4)]) for pos in range(n)]
        # c * g packed: XORed in after a shift, it clears an overflow digit c.
        self.gmul = g._multiples

    def walk(self, packed_s: int, lim: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Walk the registers x^i S mod g, i = 0..n-1, of a packed syndrome S.

        Returns the ties: every shift whose register traps the shortest
        burst, with that register, in increasing shift order (a zero
        syndrome decodes to 0, as the single tie (0, 0)).  Also returns
        every (shift, register) whose register is below ``lim`` and has a
        nonzero lowest digit.
        """
        if not packed_s:
            return [(0, 0)], []
        n, top_shift, gmul = self.n, 2 * (self.r - 1), self.gmul
        # a register ties the best one when its stages below the best's
        # lowest occupied stage are empty, and beats it when that is too
        tie_mask = beat_mask = 0
        ties: list[tuple[int, int]] = []
        cur = packed_s
        found = [(0, cur)] if cur & 3 and cur < lim else []
        for i in range(n):
            if cur >> top_shift:
                if not cur & tie_mask:
                    if cur & beat_mask:
                        ties.append((i, cur))
                    else:
                        low = (cur & -cur).bit_length() - 1 & ~1  # 2 * lowest stage
                        tie_mask, beat_mask = (1 << low) - 1, (4 << low) - 1
                        ties = [(i, cur)]
                # the top digit c leaves as c * g, whose lowest digit is
                # nonzero: only here can the next register be a pattern
                cur = cur << 2 ^ gmul[cur >> top_shift]
                if cur < lim:
                    found.append((i + 1, cur))
            else:
                cur <<= 2
        if found and found[-1][0] == n:  # x^n S = S, found at shift 0
            found.pop()
        if not ties:
            raise AssertionError("nonzero syndrome never reached the top stage")
        return ties, found

    def word(self, shift: int, trapped: int) -> int:
        """Packed decoded word of a register trapped after ``shift``
        shifts: the register rotated back."""
        n = self.n
        out = 0
        pos = n - shift
        while trapped:
            out ^= self.chunks[pos % n][trapped & 255]
            trapped >>= 8
            pos += 4
        return out

    def orbits(self, lmax: int):
        """Every pattern with first digit 1 and length up to lmax <= r, one
        syndrome orbit at a time (see the module docstring): yields the
        orbit's ties and its unmarked patterns, each as (shift, length,
        word), the word being its register rotated back by its shift."""
        lim = 1 << 2 * lmax
        digit_bits = lim // 3  # the low bit of every digit
        marks = bytearray(lim >> 2)  # indexed by pattern >> 2: first digit 1
        idx = 0
        while idx >= 0:
            ties, found = self.walk(idx << 2 | 1, lim)
            members = []
            for j, reg in found:
                pattern = reg
                if reg & 3 != 1:  # divide by w or w^2; digitwise reg = a + bw,
                    a, b = reg & digit_bits, reg >> 1 & digit_bits
                    # (a + bw) w^2 = (a + b) + aw and (a + bw) w = b + (a + b)w
                    pattern = a ^ b | a << 1 if reg & 3 == 2 else b | (a ^ b) << 1
                if marks[pattern >> 2]:
                    continue
                marks[pattern >> 2] = 1
                # below r <= deg s a register is its own syndrome modulo s
                word = self.word(j, reg) if j else reg | reg << 2 * self.n
                members.append((j, (pattern.bit_length() + 1) // 2, word))
            yield ties, members
            idx = marks.find(0, idx + 1)

    def singles(self, lengths):
        """The same for every pattern with first digit 1 of the given
        lengths, one walk each: the path for lengths above r, where a
        pattern is not its own syndrome."""
        low = (1 << self.top) - 1
        for length in lengths:
            for acc in _unit_bursts(self.table, length):
                ties, _ = self.walk(acc >> self.top, 0)
                yield ties, [(0, length, acc & low)]

    def tally(self, orbits) -> tuple[int, int, int]:
        """(N, N_0, N_D) over every start 0..n-length of the patterns that
        ``orbits`` yields."""
        n = self.n
        s_syndrome = 1 << 2 * n  # lowest bit of the syndrome modulo s
        total = exact = decoded = 0
        for ties, members in orbits:
            words = [self.word(k, reg) for k, reg in ties]
            shifts = [k for k, _ in ties] if len(ties) > 1 else None
            for j, length, e in members:
                last = n - length
                if shifts is None:  # every start picks the one tie
                    picks = ((last + 1, words[0]),)
                else:
                    # the pattern at shift j meets tie k after k - j shifts
                    # (mod n): starts prev+1..k pick tie k, and those after
                    # the last tie wrap round to the first
                    i = bisect_left(shifts, j)
                    rel = [k - j for k in shifts[i:]] + [k + n - j for k in shifts[:i]]
                    counts = [
                        min(k, last) - prev for prev, k in zip([-1] + rel, rel) if prev < last
                    ]
                    counts[0] += max(0, last - rel[-1])
                    picks = zip(counts, words[i:] + words[:i])
                for count, word in picks:
                    total += count
                    # below bit 2n: ehat - e; above it: their syndromes modulo s, XORed
                    miss = word ^ e
                    if miss < s_syndrome:
                        decoded += count
                        if not miss:
                            exact += count
        return total, exact, decoded


def _position_syndrome_tables(n: int, modulus: Polynomial) -> list[list[int]]:
    """tables[pos][digit] = packed digit * x^pos modulo a monic GF(4) polynomial."""
    return [Polynomial(GF4, p)._multiples for p in islice(_x_powers(modulus), n)]


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
    One walk of each syndrome orbit decides every pattern of length up to
    r on it, at every start, and its GF(4) multiples; a longer pattern,
    only reached with an explicit lmax above r, gets a walk of its own
    (see the module docstring).
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

    decoder = _PackedDecoder(code, dual_of)
    short = min(lmax, decoder.r)
    counts = decoder.tally(
        chain(decoder.orbits(short), decoder.singles(range(short + 1, lmax + 1)))
    )
    total, exact, decoded = (3 * count for count in counts)
    if total != total_expected:
        raise AssertionError("census enumeration does not match the closed form")
    return QetdStats(n, K, lmax, total, exact, decoded)

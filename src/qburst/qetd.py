"""Error-trapping decoder for quantum cyclic codes, and the exhaustive
burst-decoding census.

Decoding works on the syndrome polynomial S(x) = e(x) mod g(x).  The
syndrome is cyclically shifted (multiplication by x modulo g) until the
error burst sits flush against the top register stage; the shift whose
trapped burst is shortest identifies a minimum-burst coset
representative, which is then rotated back into place.  Degenerate
decodes (representative differing from the channel error by a
stabilizer element, i.e. a multiple of `dual_of.stabilizer`) count as
successes for a quantum code.

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
one orbit.

The walk lists only those registers, and the ties are read off them.  A
trap of length z at shift k is R_k = x^(r-z) q with q of length z and a
nonzero lowest digit; x is invertible modulo g and the r - z steps from
q up to R_k are plain shifts, so q = R_(k-r+z) is on the list.  An
orbit's shortest trap is no longer than its shortest pattern, so every
tie is a listed register of the least length z, r - z shifts on, and it
decodes to that register's own word.  With several ties, one prefix sum
per class of tie over 2n start positions counts the starts of any
pattern that pick it.

Patterns longer than r, reached only with an explicit lmax above r, are
not their own syndromes.  s is a multiple of g, so a pattern's syndrome
modulo s fixes its syndrome modulo g and with its length every decode:
they are counted by that syndrome, and each syndrome modulo g is walked
once.  x^1 .. x^(deg s) are a basis modulo s, so each length is counted
from at most 3 * 4^(deg s) weighted keys, not one per pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import add, itemgetter

from .cycliccode import CyclicCode, burst_count
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
        s = Polynomial.make(GF4, dual_of.stabilizer.coeffs)
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
        # the prefix sums of a lone tie, which every start picks
        self.ramp = list(range(2 * n + 1))

    def walk(self, packed_s: int, lim: int) -> list[tuple[int, int]]:
        """Walk the registers x^i S mod g, i = 0..n-1, of a nonzero packed
        syndrome S, and return every (shift, register) whose register is
        below ``lim`` and has a nonzero lowest digit: the patterns on S's
        orbit with ``lim`` = 4^lmax, and with a ``lim`` of at least 4^z,
        z the shortest trapped length, the source of every tie (see the
        module docstring)."""
        n, top_shift, gmul = self.n, 2 * (self.r - 1), self.gmul
        cur = packed_s
        found = [(0, cur)] if cur & 3 and cur < lim else []
        for i in range(1, n):
            top = cur >> top_shift
            if top:
                # the top digit c leaves as c * g, whose lowest digit is
                # nonzero: only here can the next register be a pattern
                cur = cur << 2 ^ gmul[top]
                if cur < lim:
                    found.append((i, cur))
            else:
                cur <<= 2
        return found

    def _tie_bound(self, found: list[tuple[int, int]]) -> tuple[int, int]:
        """(bound, lift) for a walk's ``found`` registers, which hold every
        shortest trap's source: the registers below ``bound`` are the
        sources, and each is trapped ``lift`` = r - z shifts later."""
        z2 = min(map(itemgetter(1), found)).bit_length() + 1 & ~1  # 2z
        return 1 << z2, self.r - z2 // 2

    def ties(self, packed_s: int) -> list[tuple[int, int]]:
        """The ties of a packed syndrome: every (shift, word) whose register
        traps the shortest burst, in increasing shift order (a zero
        syndrome decodes to 0, as the single tie (0, 0))."""
        if not packed_s:
            return [(0, 0)]
        found = self.walk(packed_s, 1 << 2 * self.r)
        bound, lift = self._tie_bound(found)
        return sorted(((j + lift) % self.n, self.word(j, reg)) for j, reg in found if reg < bound)

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
        orbit's ties, as (shift, word), and its unmarked patterns, as
        (shift, length, word), each word being a register rotated back by
        its shift."""
        n = self.n
        lim = 1 << 2 * lmax
        digit_bits = lim // 3  # the low bit of every digit
        marks = bytearray(lim >> 2)  # indexed by pattern >> 2: first digit 1
        idx = 0
        while idx >= 0:
            found = self.walk(idx << 2 | 1, lim)
            bound, lift = self._tie_bound(found)
            ties = []
            members = []
            for j, reg in found:
                pattern = reg
                if reg & 3 != 1:  # divide by w or w^2; digitwise reg = a + bw,
                    a, b = reg & digit_bits, reg >> 1 & digit_bits
                    # (a + bw) w^2 = (a + b) + aw and (a + bw) w = b + (a + b)w
                    pattern = a ^ b | a << 1 if reg & 3 == 2 else b | (a ^ b) << 1
                fresh = not marks[pattern >> 2]
                if fresh or reg < bound:
                    # below r <= deg s a register is its own syndrome modulo s
                    word = self.word(j, reg) if j else reg | reg << 2 * n
                    if fresh:
                        marks[pattern >> 2] = 1
                        members.append((j, (pattern.bit_length() + 1) // 2, word))
                    if reg < bound:
                        # a source m <= r - z shifts before the walk's start
                        # would make the start x^m q, whose lowest digit is
                        # 0: so no tie wraps round, and they come in order
                        ties.append((j + lift, word))
            yield ties, members
            idx = marks.find(0, idx + 1)

    def summary(self, ties: list[tuple[int, int]]) -> tuple[dict, dict]:
        """Prefix sums over the start positions u = 0..2n-1, where u picks
        the first tie at a shift k >= u mod n (wrapping round): of the
        starts that pick a tie of each syndrome class modulo s (a word's
        bits from 2n up), and of the starts that pick each tie word.  The
        starts u..v-1 pick a tie of class c in ``by_class[c][v] -
        by_class[c][u]`` of them."""
        n = self.n
        if len(ties) == 1:
            ((_, word),) = ties
            return {word >> 2 * n: self.ramp}, {word: self.ramp}
        # tie i is picked by the positions after the tie before it, up to
        # its own shift; the first tie also by those after the last
        runs = []
        prev = -1
        for i, (k, _) in enumerate(ties):
            runs.append((i, k - prev))
            prev = k
        runs = (runs + [(0, n - 1 - prev)]) * 2

        by_word = {}
        for word in {word for _, word in ties}:
            sums = [0]
            for i, length in runs:
                if ties[i][1] == word:
                    sums += range(sums[-1] + 1, sums[-1] + length + 1)
                else:
                    sums += [sums[-1]] * length
            by_word[word] = sums
        by_class: dict[int, list[int]] = {}
        for word, sums in by_word.items():
            other = by_class.get(word >> 2 * n)
            by_class[word >> 2 * n] = sums if other is None else list(map(add, other, sums))
        return by_class, by_word

    def tally(self, orbits) -> tuple[int, int, int]:
        """(N, N0, ND) over every start 0..n-length of the patterns that
        ``orbits`` yields."""
        n = self.n
        s_syndrome = 1 << 2 * n  # lowest bit of the syndrome modulo s
        total = exact = decoded = 0
        for ties, members in orbits:
            if len(ties) == 1:  # every start picks the one tie
                ((_, word),) = ties
                for _, length, e in members:
                    count = n - length + 1
                    total += count
                    # below bit 2n: ehat - e; above it: their syndromes modulo s, XORed
                    miss = word ^ e
                    if miss < s_syndrome:
                        decoded += count
                        if not miss:
                            exact += count
                continue
            # the pattern at shift j, started at t, meets the orbit's
            # registers from shift j + t on: its starts are positions
            # j..j+count-1 of the summary
            by_class, by_word = self.summary(ties)
            for j, length, e in members:
                end = j + n - length + 1
                total += end - j
                picked = by_class.get(e >> 2 * n)
                if picked:
                    decoded += picked[end] - picked[j]
                    picked = by_word.get(e)
                    if picked:
                        exact += picked[end] - picked[j]
        return total, exact, decoded

    def pattern_keys(self, length: int):
        """Yield (key, weight): each key, a word's bits from 2n up, stands for
        ``weight`` of the patterns of this length with first digit 1, and
        each pattern's key is counted once (see ``by_syndrome``).  Keys are
        heads XOR tails, two lists about the square root of the key count."""
        middle = min(length - 2, self.top // 2 - self.n)  # at most deg s digits
        rows = [self.table[0][1:2], *self.table[1 : middle + 1], self.table[length - 1][1:]]
        heads, tails = ([w >> 2 * self.n for w in _xor_sums(rows[i:length:2])] for i in (0, 1))
        weight = 4 ** (length - 2 - middle)
        yield from ((head ^ tail, weight) for head in heads for tail in tails)

    def by_syndrome(self, lengths) -> tuple[int, int, int]:
        """(N, N0, ND) over every start of every pattern with first digit 1
        of the given lengths, one walk per syndrome modulo g: the path for
        lengths above r, where a pattern is not its own syndrome.

        s is a multiple of g, so a pattern's syndrome modulo s fixes its
        syndrome modulo g, and with its length its decodes at every start:
        the patterns are counted by that key, and each syndrome modulo g
        is walked and summarized once.  A pattern of length L > 1 is
        1 + c x^(L-1) + x m, and x^1 .. x^(deg s) are a basis modulo s, so
        ``pattern_keys`` keeps m's first min(L - 2, deg s) digits and
        weights each key by the 4^(L-2-deg s) middles it stands for.  A
        pattern decodes exactly only where it is the tie word picked, so
        N0 is read off the tie words that are patterns of the lengths."""
        n = self.n
        lengths = set(lengths)
        s_bits = self.top - 2 * n  # the key's bits below the syndrome modulo g
        summaries: dict[int, dict[int, list[int]]] = {}
        total = exact = decoded = 0
        for length in lengths:
            count = n - length + 1
            for key, patterns in self.pattern_keys(length):
                total += patterns * count
                by_class = summaries.get(key >> s_bits)
                if by_class is None:
                    by_class, by_word = self.summary(self.ties(key >> s_bits))
                    summaries[key >> s_bits] = by_class
                    for word, picked in by_word.items():
                        digits = word & (1 << 2 * n) - 1
                        span = (digits.bit_length() + 1) // 2
                        if digits & 3 == 1 and span in lengths:
                            exact += picked[n - span + 1]
                picked = by_class.get(key & (1 << s_bits) - 1)
                if picked:
                    decoded += patterns * picked[count]
        return total, exact, decoded


def _position_syndrome_tables(n: int, modulus: Polynomial) -> list[list[int]]:
    """tables[pos][digit] = packed digit * x^pos modulo a monic GF(4) polynomial."""
    return [Polynomial(GF4, p)._multiples for p in islice(_x_powers(modulus), n)]


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
    r on it, at every start, and its GF(4) multiples; longer patterns,
    only reached with an explicit lmax above r, are counted by syndrome
    modulo s, with one walk per syndrome modulo g (see the module
    docstring).

    `guard` bounds both the bursts counted and the bytes of the decoder's
    position tables, which take about 128 n^2 (n positions by 256 packed
    words of up to 4n bits) whatever lmax is: a census past either is
    refused with a ValueError before any table is built, so at the
    default 10^9 a code longer than 2,795 is refused even at lmax = 1.
    """
    K, sweeps = _components(code, construction)
    if len(sweeps) != 1:
        raise ValueError("the census pairs one binary code with itself; got two distinct codes")
    ((code, dual_of),) = sweeps
    n = code.n
    if lmax is None:
        lmax = (n - K) // 2
    if not 1 <= lmax <= n:
        raise ValueError(f"lmax must be in 1..{n}, got {lmax}")
    total_expected = burst_count(n, 4, lmax)
    if total_expected > guard:
        raise ValueError(f"census of {total_expected} bursts exceeds the guard ({guard})")
    table_bytes = 128 * n * n
    if table_bytes > guard:
        raise ValueError(f"census decoder tables of about {table_bytes} bytes exceed the guard ({guard})")

    decoder = _PackedDecoder(code, dual_of)
    short = min(lmax, decoder.r)
    counts = zip(
        decoder.tally(decoder.orbits(short)), decoder.by_syndrome(range(short + 1, lmax + 1))
    )
    total, exact, decoded = (3 * (orbit + long) for orbit, long in counts)
    if total != total_expected:
        raise AssertionError("census enumeration does not match the closed form")
    return QetdStats(n, K, lmax, total, exact, decoded)

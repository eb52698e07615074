"""Characteristic-2 Galois field arithmetic.

Elements of GF(2^m) are represented as integers in [0, 2^m): the binary
digits of the integer are the coefficients of the element written in the
polynomial basis {1, x, ..., x^(m-1)} modulo an irreducible polynomial.
Addition is therefore XOR.  For GF(4) this gives the fixed encoding

    0 -> 0,   1 -> 1,   2 -> w,   3 -> w^2 = w + 1

(w denotes a root of x^2 + x + 1), which is the encoding used throughout
the tables and the generator-polynomial notation.

Supported extension degrees are 1..16, each with one fixed modulus: the
Conway polynomial for m in [1, 8] and the lexicographically smallest
irreducible polynomial of each degree in [9, 16].  Every field multiplies
through exp/log tables.  `FieldSpec.doublings` multiplies every element of
a packed vector (m bits per element) by x, x^2, ..., x^(m-1) at once;
packed polynomials and packed matrix columns scale through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

# The modulus of each extension degree: the Conway polynomials (the
# representation used by most computer algebra systems) up to degree 8, the
# lexicographically smallest irreducible polynomials beyond.  Bit i is the
# coefficient of x^i.
MODULI: dict[int, int] = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1011011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201b,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002b,
}


class FieldSpec:
    """GF(2^m) modulo the fixed modulus `MODULI[m]`.

    Immutable after construction; every operation is a pure function of
    integer-encoded elements, so instances are safe to share freely.
    """

    def __init__(self, m: int):
        if not 1 <= m <= 16:
            raise ValueError(f"supported extension degrees are 1..16, got {m}")
        self.m = m
        self.modulus = MODULI[m]
        self.q = 1 << m
        self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _mul_shift(self, a: int, b: int) -> int:
        r = 0
        mod = self.modulus
        top = self.q
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod
        return r

    def _build_tables(self) -> None:
        # Find a generator of the multiplicative group; x itself works for
        # every shipped Conway modulus (and 1 generates the group of GF(2)).
        n = self.q - 1
        for alpha in range(1, self.q):
            order = 1
            v = alpha
            while v != 1:
                v = self._mul_shift(v, alpha)
                order += 1
                if order > n:
                    raise AssertionError("element order exceeded group order")
            if order == n:
                break
        else:
            raise AssertionError("no primitive element found")
        self.alpha = alpha
        exp = [1] * (2 * n)
        log = [0] * self.q
        v = 1
        for i in range(n):
            exp[i] = v
            log[v] = i
            v = self._mul_shift(v, alpha)
        for i in range(n, 2 * n):
            exp[i] = exp[i - n]
        self._exp = exp
        self._log = log

    # -- arithmetic -----------------------------------------------------------

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"element {a} out of range for GF(2^{self.m})")
        return a

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[(self.q - 1) - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def doublings(self, packed: int) -> list[int]:
        """x^j * every digit of `packed`, for j = 0 .. m-1.

        `packed` holds field elements as m-bit digits (digit i in bits
        i*m .. i*m + m - 1).  Multiplying every digit by x at once shifts
        each digit up by one bit and reduces the digits whose top bit
        overflowed by the field modulus.  c times every digit is the XOR
        of the doublings at the set bits j of c.
        """
        m = self.m
        out = [packed]
        if m == 1:
            return out
        digits = (packed.bit_length() + m - 1) // m
        tops = ((1 << (m * digits)) - 1) // (self.q - 1) << (m - 1)  # top bit of each digit
        reduction = self.modulus ^ self.q  # x^m as a field element
        for _ in range(m - 1):
            top = packed & tops
            packed = ((packed ^ top) << 1) ^ ((top >> (m - 1)) * reduction)
            out.append(packed)
        return out

    @lru_cache(maxsize=None)  # a FieldSpec hashes by m: one entry per (m, a)
    def scalar_doublings(self, a: int) -> list[int]:
        """`doublings` of the element a on its own (x^j * a), kept per field."""
        return self.doublings(a)

    def conj(self, a: int) -> int:
        """Conjugation x -> x^2 of GF(4) over GF(2) (identity on GF(2))."""
        if self.m == 1:
            return a
        if self.m == 2:
            return self.mul(a, a)
        raise ValueError("conjugation is defined here for GF(2) and GF(4) only")

    def trace(self, a: int) -> int:
        """Trace into GF(2): a + a^2 + a^4 + ... + a^(2^(m-1))."""
        t = 0
        v = a
        for _ in range(self.m):
            t ^= v
            v = self.pow(v, 2)
        return t

    def elements(self) -> range:
        return range(self.q)

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldSpec) and self.m == other.m

    def __hash__(self) -> int:
        return hash(self.m)

    def __repr__(self) -> str:
        return f"FieldSpec(m={self.m}, modulus={self.modulus:#x})"


def _times(doublings: list[int], c: int) -> int:
    """c times a packed vector, given its doublings (FieldSpec.doublings)."""
    out = 0
    for x_j in doublings:
        if c & 1:
            out ^= x_j
        c >>= 1
    return out


def _xor_sums(rows) -> list[int]:
    """The XOR of one entry of each row, for every choice of entries; the
    choice in the first row varies fastest."""
    sums = [0]
    for row in rows:
        sums = [a ^ b for b in row for a in sums]
    return sums


@lru_cache(maxsize=None)
def field_make(m: int) -> FieldSpec:
    """Construct (and cache) GF(2^m)."""
    return FieldSpec(m)


GF2 = field_make(1)
GF4 = field_make(2)

OMEGA = 2
OMEGA_BAR = 3


@dataclass(frozen=True)
class SelfDualBasis:
    """A basis a_1..a_m of GF(2^m) over GF(2) with Tr(a_i a_j) = delta_ij."""

    field: FieldSpec
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.field.m
        for a in self.elements:
            self.field.check(a)
        gram = self.gram()
        if len(self.elements) != m or any(
            gram[i][j] != (i == j) for i in range(m) for j in range(m)
        ):
            raise ValueError(f"{self.elements} is not a self-dual basis of GF(2^{m})")

    def gram(self) -> list[list[int]]:
        return [
            [self.field.trace(self.field.mul(a, b)) for b in self.elements]
            for a in self.elements
        ]

    def coordinates(self, value: int) -> tuple[int, ...]:
        """GF(2) coordinates of a field element in this basis.

        Self-duality makes the coordinate map a trace inner product:
        value = sum_j Tr(value * a_j) a_j.
        """
        f = self.field
        return tuple(f.trace(f.mul(value, a)) for a in self.elements)


def self_dual_basis(field: FieldSpec) -> SelfDualBasis:
    """Build a self-dual basis of GF(2^m) over GF(2).

    Diagonalizes the trace bilinear form B(a, b) = Tr(ab) to the identity
    by a Gram-Schmidt pass over the polynomial basis; when the residual
    form turns alternating (no vector with B(v, v) = 1 remains), three new
    orthonormal vectors are formed from the last accepted vector and a
    hyperbolic pair.  Deterministic; the basis verifies itself on construction.
    """
    f = field
    m = f.m

    def b(u: int, v: int) -> int:
        return f.trace(f.mul(u, v))

    rest = [1 << i for i in range(m)]
    chosen: list[int] = []
    while rest:
        pivot = next((u for u in rest if b(u, u) == 1), None)
        if pivot is not None:
            rest.remove(pivot)
            rest = [u ^ pivot if b(u, pivot) else u for u in rest]
            rest = [u for u in rest if u]
            chosen.append(pivot)
            continue
        # Residual form is alternating: fix up with a hyperbolic pair.
        if not chosen:
            raise AssertionError("trace form cannot be alternating on the full space")
        u = rest[0]
        w = next(x for x in rest[1:] if b(u, x) == 1)
        t = chosen.pop()
        rest.remove(u)
        rest.remove(w)
        trio = (t ^ u, t ^ w, t ^ u ^ w)
        fixed = []
        for x in rest:
            for y in trio:
                if b(x, y):
                    x ^= y
            fixed.append(x)
        rest = [x for x in fixed if x]
        chosen.extend(trio)

    return SelfDualBasis(f, tuple(chosen))

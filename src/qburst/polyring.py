"""Polynomials over GF(2^m), cyclotomic cosets, and divisors of x^n - 1.

A polynomial is one int holding coefficient i in bits i*m .. i*m + m - 1,
so addition is XOR.  A product or a long division XORs shifted scalar
multiples c * p of one operand; each polynomial computes its q multiples
once, for all of its coefficients at a time, from the doublings x^j * p
of `FieldSpec.doublings`, and keeps them.  A scaling by one c XORs the
doublings at the set bits of c, so it never builds the q multiples.
One packed long division (`_divide`) serves `divmod` and the gcds of the
factorization (`_monic_gcd`), whose divisors, each used once, are scaled
from their doublings.  The powers x^j modulo a monic g (`_x_powers`: the
census tables of qetd, the columns of the qccburst shift sweep, modulo
the reciprocal of the code's generator, and the residues of the
factorization) are stepped by one shift-and-reduce each, and the weak
Popov bases of the pairs x^T a = b (mod g) (`_shift_bases`) by a few
cancellations of a leading term each, neither with a division.

x^n - 1 (n coprime to q) is factored over the base field by Berlekamp
splitting (Bell Syst. Tech. J. 46, 1967).  The coset sums b_C = sum_{j
in C} x^j, one per cyclotomic coset C of q modulo n, satisfy b_C^q = b_C
modulo x^n - 1, so each is a constant of GF(q) modulo every irreducible
factor, and together they tell the factors apart.  A part p splits at
the first coset where b_C mod p (the XOR of x^j mod p over j in C, from
one `_x_powers` list) is no constant, into its gcds with b_C - c, c in
GF(q): each gcd is taken with what is left of p once the pieces before
it are divided out, and the piece of the last c is what is left, with
no gcd.  Each piece goes on from the next coset.  Once there are as
many parts as cosets, each is irreducible, and every generator of a
cyclic code of length n is a subset product of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from itertools import count, islice, product
from math import gcd, prod
from operator import xor
from typing import Callable, Iterator

from .galois import FieldSpec, _times, _xor_sums


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial over `field`; ``bits`` packs coefficient i
    (integer-encoded) into bits i*m .. i*m + m - 1.

    Every int >= 0 is canonical, 0 being the zero polynomial.  ``make``
    builds from a coefficient sequence, low degree first, and checks each
    coefficient, since a digit >= q would spill into its neighbour; the raw
    constructor takes a packed int as it is.  ``coeffs`` reads the
    coefficients back as a tuple without trailing zeros.
    """

    field: FieldSpec
    bits: int

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def make(field: FieldSpec, coeffs) -> Polynomial:
        m = field.m
        bits = 0
        for i, c in enumerate(coeffs):
            if c:
                bits |= field.check(c) << (i * m)
        return Polynomial(field, bits)

    @staticmethod
    def zero(field: FieldSpec) -> Polynomial:
        return Polynomial(field, 0)

    @staticmethod
    def one(field: FieldSpec) -> Polynomial:
        return Polynomial(field, 1)

    @staticmethod
    def x_pow(field: FieldSpec, e: int) -> Polynomial:
        return Polynomial(field, 1 << (e * field.m))

    @staticmethod
    def xn_minus_1(field: FieldSpec, n: int) -> Polynomial:
        # characteristic 2: x^n - 1 = x^n + 1
        return Polynomial(field, 1 | 1 << (n * field.m))

    # -- queries --------------------------------------------------------------

    @property
    def degree(self) -> int:
        m = self.field.m
        return (self.bits.bit_length() + m - 1) // m - 1

    @property
    def is_zero(self) -> bool:
        return not self.bits

    @property
    def lead(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.bits >> (max(self.degree, 0) * self.field.m)

    @property
    def is_monic(self) -> bool:
        return self.lead == 1

    def coeff(self, i: int) -> int:
        return (self.bits >> (i * self.field.m)) & (self.field.q - 1) if i >= 0 else 0

    @cached_property
    def coeffs(self) -> tuple[int, ...]:
        # eight digits fill m bytes, so the int is read m bytes at a time:
        # linear in the degree, where one shift of the whole int per digit
        # would be quadratic
        m, mask = self.field.m, self.field.q - 1
        digits = self.degree + 1
        raw = self.bits.to_bytes(-(-digits // 8) * m, "little")
        shifts = range(0, 8 * m, m)
        out = []
        for at in range(0, len(raw), m):
            word = int.from_bytes(raw[at:at + m], "little")
            out += [(word >> s) & mask for s in shifts]
        return tuple(out[:digits])

    @cached_property
    def _doublings(self) -> list[int]:
        """The packed x^j * self, j = 0 .. m-1 (`FieldSpec.doublings`)."""
        return self.field.doublings(self.bits)

    @cached_property
    def _multiples(self) -> list[int]:
        """Packed c * self at index c, for every element c of the field:
        the XOR of the doublings x^j * self over the set bits j of c."""
        return _xor_sums([(0, p) for p in self._doublings])

    # -- arithmetic -----------------------------------------------------------

    def _same_field(self, other: Polynomial) -> None:
        if self.field != other.field:
            raise ValueError("polynomials over different fields")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._same_field(other)
        return Polynomial(self.field, self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: Polynomial) -> Polynomial:
        self._same_field(other)
        m, mask = self.field.m, self.field.q - 1
        multiples = other._multiples
        a, out, shift = self.bits, 0, 0
        while a:
            c = a & mask
            if c:
                out ^= multiples[c] << shift
            a >>= m
            shift += m
        return Polynomial(self.field, out)

    def scale(self, c: int) -> Polynomial:
        # from the m doublings, not the q multiples: over GF(2^16) the table
        # of a long polynomial would not fit in memory
        return Polynomial(self.field, _times(self._doublings, c))

    def __divmod__(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        self._same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        times = other._multiples.__getitem__
        quot, rem = _divide(self.field, self.bits, other.bits, times)
        return Polynomial(self.field, quot), Polynomial(self.field, rem)

    def __mod__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[1]

    def monic(self) -> Polynomial:
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.field.inv(self.lead))

    def reciprocal(self) -> Polynomial:
        """x^deg * p(1/x), trimmed (assumes nonzero constant term use-cases).

        The binary text of the int, padded to whole digits, read back m
        characters at a time from the low end: linear in the degree."""
        m = self.field.m
        text = format(self.bits, "b")
        text = text.zfill(-(-len(text) // m) * m)
        return Polynomial(
            self.field, int("".join(text[i - m:i] for i in range(len(text), 0, -m)), 2)
        )

    def conjugate(self) -> Polynomial:
        """Coefficient-wise conjugation (GF(4): x -> x^2; the identity over GF(2))."""
        f = self.field
        m = f.m
        if m == 1:
            return self
        bits = 0
        for i, c in enumerate(self.coeffs):
            bits |= f.conj(c) << (i * m)
        return Polynomial(f, bits)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = [
            f"{c}*x^{i}" if i else f"{c}"
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return "Poly(" + " + ".join(terms) + ")"


def _divide(
    field: FieldSpec, rem: int, divisor: int, times: Callable[[int], int]
) -> tuple[int, int]:
    """Packed long division of `rem` by the nonzero `divisor`, whose
    multiple c * divisor is `times(c)`: (quotient, remainder)."""
    m = field.m
    db = (divisor.bit_length() + m - 1) // m - 1
    lead_inv = field.inv(divisor >> (db * m))
    quot = 0
    d = (rem.bit_length() + m - 1) // m - 1
    while d >= db:
        # cancel the leading coefficient of rem with a shifted multiple;
        # a monic divisor (the common case) needs no scaling
        c = rem >> (d * m)
        if lead_inv != 1:
            c = field.mul(c, lead_inv)
        shift = (d - db) * m
        rem ^= times(c) << shift
        quot |= c << shift
        d = (rem.bit_length() + m - 1) // m - 1
    return quot, rem


def _shift_bases(
    field: FieldSpec, g: int, start: int
) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """Weak Popov bases ((a1, b1), (a2, b2)) of M_T = {(a, b) : x^T a = b
    (mod g)} over the packed monic g, for T = start, start + 1, ... on end.

    A row's degree is max(deg a, deg b); its pivot is b when deg b >= deg a,
    else a.  The pivots differ, so every pair of M_T is u1 R1 + u2 R2 of
    degree max(deg u1 + deg R1, deg u2 + deg R2), and the row degrees sum
    to deg g (Mulders and Storjohann, J. Symbolic Comput. 35(4), 2003).
    M_(T+1) = {(a, b) : (x a, b) in M_T}: with p a row whose a(0) is nonzero
    (the lower degree one if both are) and o the other row cleared of its
    a(0) by p, it is spanned by (a_p, x b_p) and (a_o / x, b_o), which a few
    cancellations of a leading term by a shifted multiple of the other row
    bring back to weak Popov form.  A row is one packed int, b above a
    (deg a <= deg g), so one scaling is one `_times`.
    """
    m, mask = field.m, field.q - 1
    low = -(-g.bit_length() // m) * m  # the digits 0 .. deg g hold a
    a_mask = (1 << low) - 1
    top = 1 << low - m  # x^deg g
    r1, r2 = 1 << low | 1, (g ^ top) << low | top  # (1, 1) and (x^r, g - x^r)

    def lead(row: int) -> tuple[int, int]:
        """(degree, bit offset of the pivot's leading digit) of a row."""
        da = -(-(row & a_mask).bit_length() // m)
        db = -(-(row >> low).bit_length() // m)
        return (db - 1, low + (db - 1) * m) if db >= da else (da - 1, (da - 1) * m)

    for shift in count():
        (d1, at1), (d2, at2) = lead(r1), lead(r2)
        while (at1 >= low) == (at2 >= low):  # one pivot column: cancel a lead
            if d1 < d2:
                r1, r2, d1, at1, d2, at2 = r2, r1, d2, at2, d1, at1
            c = field.mul(r1 >> at1 & mask, field.inv(r2 >> at2 & mask))
            r1 ^= _times(field.doublings(r2), c) << (d1 - d2) * m
            d1, at1 = lead(r1)
        if shift >= start:
            yield (r1 & a_mask, r1 >> low), (r2 & a_mask, r2 >> low)
        if not r1 & mask or r2 & mask and d2 < d1:
            r1, r2 = r2, r1
        if r2 & mask:
            r2 ^= _times(field.doublings(r1), field.mul(r2 & mask, field.inv(r1 & mask)))
        r1, r2 = r1 >> low << low + m | r1 & a_mask, r2 >> low << low | (r2 & a_mask) >> m


def _x_powers(g: Polynomial) -> Iterator[int]:
    """The packed x^0, x^1, x^2, ... modulo the monic g, without end (all
    0 for g = 1).  Each power is the one before shifted up a digit, its
    digit deg g cancelled by one of g's multiples."""
    m, multiples = g.field.m, g._multiples
    top = g.degree * m
    power = 1 if top else 0
    while True:
        yield power
        power <<= m
        power ^= multiples[power >> top]


def cyclotomic_cosets(n: int, q: int) -> list[list[int]]:
    """q-cyclotomic cosets {i, iq, iq^2, ...} mod n, sorted by minimum."""
    if gcd(n, q) != 1:
        raise ValueError(f"gcd(n={n}, q={q}) must be 1")
    seen = [False] * n
    cosets = []
    for i in range(n):
        if seen[i]:
            continue
        coset = []
        j = i
        while not seen[j]:
            seen[j] = True
            coset.append(j)
            j = (j * q) % n
        cosets.append(sorted(coset))
    return cosets


def _monic_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by packed remainders; each divisor is used once, so it is
    scaled from its m doublings (`_times`), never from the q multiples."""
    field, a, b = a.field, a.bits, b.bits
    while b:
        a, b = b, _divide(field, a, b, partial(_times, field.doublings(b)))[1]
    return Polynomial(field, a).monic()


@lru_cache(maxsize=None)
def _factorization(n: int, field: FieldSpec) -> tuple[Polynomial, ...]:
    cosets = cyclotomic_cosets(n, field.q)
    todo, done = [(Polynomial.xn_minus_1(field, n), 0)], []  # (part, its first coset)
    while len(todo) + len(done) < len(cosets):
        p, first = todo.pop()  # one part at a time: its list is freed in turn
        powers = list(islice(_x_powers(p), n))
        for i in range(first, len(cosets)):
            residue = reduce(xor, map(powers.__getitem__, cosets[i]))
            if residue >= field.q:  # b_C mod p is no constant: p splits
                break
        else:
            done.append(p)
            continue
        for c in range(field.q - 1):
            d = _monic_gcd(p, Polynomial(field, residue ^ c))
            if d.degree > 0:
                todo.append((d, i + 1))
                p = divmod(p, d)[0]
        if p.degree > 0:  # what is left is the gcd with b_C - (q - 1)
            todo.append((p, i + 1))
    return tuple(sorted(done + [p for p, _ in todo], key=lambda p: (p.degree, p.coeffs)))


def factor_xn_minus_1(n: int, field: FieldSpec) -> list[Polynomial]:
    """Distinct irreducible factors of x^n - 1 over the field, sorted."""
    return list(_factorization(n, field))


def divisor_generators(
    n: int,
    field: FieldSpec,
    degree_range: tuple[int, int] | None = None,
) -> Iterator[Polynomial]:
    """Yield every monic divisor of x^n - 1 with degree in the given range.

    Divisors are subset products of the irreducible factors, in the fixed
    ascending bitmask order over the sorted factor list (bit i is factor i;
    `product` varies its last position fastest, hence the reversal).
    """
    lo, hi = degree_range if degree_range is not None else (0, n)
    one = Polynomial.one(field)
    for choice in product(*[(one, p) for p in reversed(_factorization(n, field))]):
        if lo <= sum(p.degree for p in choice) <= hi:
            yield prod(choice, start=one)

"""Polynomials over GF(2^m), cyclotomic cosets, and divisors of x^n - 1.

A polynomial is one int holding coefficient i in bits i*m .. i*m + m - 1,
so addition is XOR.  A product or a long division XORs shifted scalar
multiples c * p of one operand; each polynomial computes its q multiples
once, for all of its coefficients at a time, from the doublings x^j * p
of `FieldSpec.doublings`, and keeps them.  A scaling by one c XORs the
doublings at the set bits of c, so it never builds the q multiples.

x^n - 1 (n coprime to q) is factored over the base field itself by
Berlekamp splitting.  The coset sums b_C = sum_{j in C} x^j, one per
cyclotomic coset C of q modulo n, satisfy b_C^q = b_C modulo x^n - 1, so
each reduces to a constant of GF(q) modulo every irreducible factor, and
together they tell the factors apart.  Splitting every partial factor p
into the gcds of p with b_C - c, c in GF(q), therefore ends with one part
per coset: the irreducible factors.  Every candidate generator polynomial
of a cyclic code of length n is then a subset product of these factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, prod
from typing import Iterator

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
        m, mask = self.field.m, self.field.q - 1
        return tuple((self.bits >> (i * m)) & mask for i in range(self.degree + 1))

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
        f = self.field
        m = f.m
        db = other.degree
        lead_inv = f.inv(other.lead)
        multiples = other._multiples
        rem, quot = self.bits, 0
        d = self.degree
        while d >= db:
            # cancel the leading coefficient of rem with a shifted multiple;
            # a monic divisor (the common case) needs no scaling
            c = rem >> (d * m)
            if lead_inv != 1:
                c = f.mul(c, lead_inv)
            shift = (d - db) * m
            rem ^= multiples[c] << shift
            quot |= c << shift
            d = (rem.bit_length() + m - 1) // m - 1
        return Polynomial(f, quot), Polynomial(f, rem)

    def __mod__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[1]

    def monic(self) -> Polynomial:
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.field.inv(self.lead))

    def reciprocal(self) -> Polynomial:
        """x^deg * p(1/x), trimmed (assumes nonzero constant term use-cases)."""
        m = self.field.m
        bits = 0
        for c in self.coeffs:
            bits = (bits << m) | c
        return Polynomial(self.field, bits)

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
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


@lru_cache(maxsize=None)
def _factorization(n: int, field: FieldSpec) -> tuple[Polynomial, ...]:
    cosets = cyclotomic_cosets(n, field.q)
    parts = [Polynomial.xn_minus_1(field, n)]
    for coset in cosets:
        if len(parts) == len(cosets):
            break
        members = set(coset)
        b = Polynomial.make(field, [int(j in members) for j in range(n)])
        split = []
        for p in parts:
            residue = b % p
            for c in field.elements():
                d = _monic_gcd(p, residue - Polynomial(field, c))
                if d.degree > 0:
                    split.append(d)
        parts = split
    parts.sort(key=lambda p: (p.degree, p.coeffs))
    return tuple(parts)


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

"""Polynomials over GF(2^m), cyclotomic cosets, and divisors of x^n - 1.

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
from functools import lru_cache
from math import gcd
from typing import Iterator

from .galois import FieldSpec


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial; coeffs[i] is the (integer-encoded) coefficient of x^i.

    Kept in canonical trimmed form: the leading coefficient is nonzero
    unless the polynomial is zero (empty coefficient tuple, degree -1).
    """

    field: FieldSpec
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("coefficients not in trimmed canonical form")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def make(field: FieldSpec, coeffs) -> Polynomial:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            field.check(c)
        return Polynomial(field, tuple(cs))

    @staticmethod
    def zero(field: FieldSpec) -> Polynomial:
        return Polynomial(field, ())

    @staticmethod
    def one(field: FieldSpec) -> Polynomial:
        return Polynomial(field, (1,))

    @staticmethod
    def x_pow(field: FieldSpec, e: int, c: int = 1) -> Polynomial:
        if c == 0:
            return Polynomial.zero(field)
        return Polynomial(field, (0,) * e + (c,))

    @staticmethod
    def xn_minus_1(field: FieldSpec, n: int) -> Polynomial:
        # characteristic 2: x^n - 1 = x^n + 1
        return Polynomial(field, (1,) + (0,) * (n - 1) + (1,))

    # -- queries --------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def evaluate(self, point: int) -> int:
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.mul(acc, point) ^ c
        return acc

    # -- arithmetic -----------------------------------------------------------

    def _same_field(self, other: Polynomial) -> None:
        if self.field != other.field:
            raise ValueError("polynomials over different fields")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._same_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] ^= c
        return Polynomial.make(self.field, out)

    __sub__ = __add__

    def __mul__(self, other: Polynomial) -> Polynomial:
        self._same_field(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero(self.field)
        f = self.field
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] ^= f.mul(a, b)
        return Polynomial.make(f, out)

    def scale(self, c: int) -> Polynomial:
        f = self.field
        return Polynomial.make(f, [f.mul(c, a) for a in self.coeffs])

    def __divmod__(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        self._same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        db = other.degree
        lead_inv = f.inv(other.coeffs[-1])
        if self.degree < db:
            return Polynomial.zero(f), self
        quot = [0] * (self.degree - db + 1)
        for i in range(self.degree - db, -1, -1):
            c = rem[i + db]
            if c == 0:
                continue
            factor = f.mul(c, lead_inv)
            quot[i] = factor
            for j, b in enumerate(other.coeffs):
                rem[i + j] ^= f.mul(factor, b)
        return Polynomial.make(f, quot), Polynomial.make(f, rem)

    def __mod__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[1]

    def __floordiv__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[0]

    def monic(self) -> Polynomial:
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def reciprocal(self) -> Polynomial:
        """x^deg * p(1/x), trimmed (assumes nonzero constant term use-cases)."""
        return Polynomial.make(self.field, tuple(reversed(self.coeffs)))

    def conjugate(self) -> Polynomial:
        """Coefficient-wise conjugation (GF(4): x -> x^2)."""
        f = self.field
        return Polynomial.make(f, [f.conj(c) for c in self.coeffs])

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
                d = _monic_gcd(p, residue - Polynomial.x_pow(field, 0, c))
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

    Divisors are subset products of the irreducible factors; subsets are
    enumerated in ascending bitmask order over the sorted factor list, so
    the stream order is deterministic.
    """
    factors = _factorization(n, field)
    lo, hi = degree_range if degree_range is not None else (0, n)
    degrees = [p.degree for p in factors]
    for mask in range(1 << len(factors)):
        total = sum(d for i, d in enumerate(degrees) if (mask >> i) & 1)
        if not lo <= total <= hi:
            continue
        poly = Polynomial.one(field)
        for i, p in enumerate(factors):
            if (mask >> i) & 1:
                poly = poly * p
        yield poly

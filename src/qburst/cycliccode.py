"""Cyclic codes: structured generator/parity-check matrices, syndromes,
membership, dual-containing tests, and the enumeration and count of
burst patterns.

Conventions (0-based positions throughout):

* The code of length n with generator g(x) is {v : g(x) divides v(x)},
  vectors read as polynomials with position i the coefficient of x^i.
* G is the k x n matrix whose row i is x^i * g(x); its rows span the code.
* H is the r x n matrix whose row i carries the reversed parity-check
  polynomial, H[i][i+j] = h_{k-j}.  Its kernel is exactly the code, any
  vector supported on the last t positions has syndrome support in the
  last t coordinates, and the trailing r x r block is lower-triangular
  with the (nonzero) constant term h_0 on the diagonal.
* The syndrome of a vector is the coefficient vector of v(x) mod g(x);
  it vanishes exactly on codewords, like H v^T, and the two are related
  by a fixed invertible map.
* The stabilizer judged against a partner code `dual_of` (the code itself
  for a Hermitian code) is generated by s = conj(dual_g) of the partner,
  for GF(4) and GF(2) alike: a construction is admissible iff g | s, and
  confusing e with f is harmless iff s | e - f.
* `dual_containing_codes` holds a code as a mask over the factors of
  x^n - 1.  Reversal (monic reciprocal) and conjugation are permutations
  rev and conj of the factor indices, and the partner map is conj o rev.
  Over GF(4) with 3 | n the twist g(x) -> g(wx) / w^deg g is a third one:
  w^n = 1, so it maps the divisors of x^n - 1 to divisors; it scales
  position i by w^i, so it keeps every support; and it keeps the
  Hermitian form, as w^i conj(w^i) = w^(3i) = 1.  rev o twist =
  twist^2 o rev, and likewise for conj, so the three maps generate a
  group of 12 index permutations (4 without the twist).  Every map of
  the group keeps burst lengths and commutes with the partner map, so
  the codes whose masks share an orbit share K and every burst limit;
  the orbit key is the least mask of the orbit.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Iterator

from .galois import OMEGA, FieldSpec
from .matgf import MatrixGF
from .polyring import Polynomial, factor_xn_minus_1

# The longest code length taken.  x^n - 1 is built as one int of n*m bits
# before anything else checks a code; over GF(4) this keeps it to 16 KB.
MAX_LENGTH = 65535


class CyclicCode:
    def __init__(self, n: int, field: FieldSpec, g: Polynomial):
        self.n, self.field, self.g = n, field, g

    def __eq__(self, other):
        if other.__class__ is not CyclicCode:
            return NotImplemented
        return self.n == other.n and self.g == other.g and self.field == other.field

    def __hash__(self) -> int:
        return hash((self.n, self.field, self.g))

    @property
    def r(self) -> int:
        return self.g.degree

    @property
    def k(self) -> int:
        return self.n - self.g.degree

    @cached_property
    def G(self) -> MatrixGF:
        # column j holds g_(j-i) in digit i: rev(g) = sum g_(r-t) x^t, shifted
        m, r = self.field.m, self.r
        rev, low = self.g.reciprocal().bits, (1 << (self.k * m)) - 1
        return MatrixGF(self.field, self.k, tuple(
            (rev << (j * m) >> (r * m)) & low for j in range(self.n)
        ))

    @cached_property
    def H(self) -> MatrixGF:
        # column c holds h_(k-c+i) in digit i
        m, k = self.field.m, self.k
        h, low = self.h.bits, (1 << (self.r * m)) - 1
        return MatrixGF(self.field, self.r, tuple(
            (h << (c * m) >> (k * m)) & low for c in range(self.n)
        ))

    @cached_property
    def h(self) -> Polynomial:
        """Parity-check polynomial (x^n - 1) / g; `code_from_generator`
        fills it in from the division that checks g."""
        return divmod(Polynomial.xn_minus_1(self.field, self.n), self.g)[0]

    @cached_property
    def dual_g(self) -> Polynomial:
        """Generator polynomial of the Euclidean dual (monic reciprocal of h)."""
        return self.h.reciprocal().monic()

    @cached_property
    def stabilizer(self) -> Polynomial:
        """s = conj(dual_g): the generator of the Hermitian dual of the code
        over GF(4), of its Euclidean dual over GF(2) (conj is the identity);
        `dual_containing_codes` stores the s it grows."""
        return self.dual_g.conjugate()

    def __repr__(self) -> str:
        sub = "" if self.field.m == 1 else f"_{self.field.q}"
        return f"CyclicCode([{self.n},{self.k}]{sub}, g={self.g})"


def code_from_generator(n: int, g: Polynomial) -> CyclicCode:
    if not 1 <= n <= MAX_LENGTH:
        raise ValueError(f"length must be in 1..{MAX_LENGTH}, got {n}")
    if g.is_zero or not g.is_monic:
        raise ValueError("generator must be monic and nonzero")
    field = g.field
    xn1 = Polynomial.xn_minus_1(field, n)
    h, rem = divmod(xn1, g)
    if not rem.is_zero:
        raise ValueError(f"{g!r} does not divide x^{n} - 1 over GF({field.q})")
    code = CyclicCode(n, field, g)
    code.__dict__["h"] = h  # the cached property, filled in
    return code


def vector_poly(code: CyclicCode, v) -> Polynomial:
    if len(v) != code.n:
        raise ValueError(f"vector length {len(v)} != n={code.n}")
    return Polynomial.make(code.field, v)


def syndrome(code: CyclicCode, v) -> tuple[int, ...]:
    """Length-r syndrome: coefficients of v(x) mod g(x)."""
    rem = vector_poly(code, v) % code.g
    return tuple(rem.coeff(i) for i in range(code.r))


def contains(code: CyclicCode, v) -> bool:
    """Membership test: v(x) divisible by the generator."""
    return (vector_poly(code, v) % code.g).is_zero


def in_euclidean_dual(code: CyclicCode, v) -> bool:
    """True iff v lies in the Euclidean dual of the code."""
    return (vector_poly(code, v) % code.dual_g).is_zero


def _twist(p: Polynomial) -> Polynomial:
    """p(wx) over GF(4), made monic: digit i times w^i."""
    f = p.field
    return Polynomial.make(f, (f.mul(c, f.pow(OMEGA, i)) for i, c in enumerate(p.coeffs))).monic()


def dual_containing_codes(n: int, field: FieldSpec) -> Iterator[tuple[CyclicCode, int]]:
    """Every code of length n with deg g >= 1 admissible for the construction
    of its field (Hermitian over GF(4), CSS with itself over GF(2)), with its
    orbit key (see the module docstring).  s is the product of partner(p)
    over the factors p of h, so g | s iff g holds no self-partner factor and
    at most one of each pair {p, p'}: self-partner factors go to s, and each
    pair gives (g, s) one of (1, p p'), (p, p) or (p', p'), multiplied on
    along the enumeration tree (short factor first), so s takes no
    conjugation; h is left to the cached property, which no search reads.
    Each choice ORs the images of its factor under every map of the group
    into one mask per map, whose least at a leaf is the key."""
    factors = factor_xn_minus_1(n, field)
    index = {p: i for i, p in enumerate(factors)}
    rev = [index[p.reciprocal().monic()] for p in factors]
    conj = [index[p.conjugate()] for p in factors]
    partner = [conj[i] for i in rev]
    maps = [range(len(factors)), conj, rev, partner]
    if field.m == 2 and n % 3 == 0:
        twist = [index[_twist(p)] for p in factors]
        for _ in range(2):  # twist, then twist^2, after each of the four
            maps += [[twist[i] for i in perm] for perm in maps[-4:]]
    one, s, pairs = Polynomial.one(field), Polynomial.one(field), []
    for i, p in enumerate(factors):
        j = partner[i]
        if j == i:
            s *= p
        elif i < j:
            q = factors[j]
            pairs.append(((one, p * q, [0] * len(maps)),
                          (p, p, [1 << perm[i] for perm in maps]),
                          (q, q, [1 << perm[j] for perm in maps])))

    # depth first, the first choice of each pair first, from an explicit
    # stack of the inner nodes: each (g, s, masks) is built once from its
    # parent's, and the last pair's choices make the codes themselves
    last = len(pairs) - 1
    stack = [(0, one, s, [0] * len(maps))] if pairs else []
    while stack:
        depth, g, s, masks = stack.pop()
        if depth < last:
            for dg, ds, dmasks in reversed(pairs[depth]):
                stack.append((depth + 1, g if dg is one else dg * g, ds * s,
                              [a | b for a, b in zip(masks, dmasks)]))
            continue
        for dg, ds, dmasks in pairs[depth]:
            if g is one and dg is one:  # skip g = 1
                continue
            code = CyclicCode(n, field, g if dg is one else dg * g)
            code.__dict__["stabilizer"] = ds * s  # the cached property, filled in
            yield code, min(a | b for a, b in zip(masks, dmasks))


def hermitian_dual_containing(code: CyclicCode) -> bool:
    """Admissibility for the Hermitian construction (H H^dagger = 0): the
    code's generator divides the stabilizer generator of the code."""
    if code.field.m != 2:
        raise ValueError("Hermitian construction requires GF(4)")
    return (code.stabilizer % code.g).is_zero


def css_dual_containing(c1: CyclicCode, c2: CyclicCode) -> bool:
    """Admissibility for the CSS construction (H1 H2^T = 0): the dual of C2
    lies in C1, or equivalently the dual of C1 lies in C2, which holds iff
    the generator of C1 divides the stabilizer generator of C2."""
    if c1.field != c2.field or c1.field.m != 1:
        raise ValueError("CSS construction requires a matching GF(2) pair")
    if c1.n != c2.n:
        raise ValueError("CSS construction requires equal lengths")
    return (c2.stabilizer % c1.g).is_zero


def burst_length(v) -> int:
    """Span between first and last nonzero entries (0 for the zero vector)."""
    support = [i for i, c in enumerate(v) if c]
    if not support:
        return 0
    return support[-1] - support[0] + 1


def _burst_patterns(q: int, lmax: int):
    """Digit tuples over GF(q), nonzero at both ends, of every length
    1..lmax, length by length."""
    nonzero = range(1, q)
    if lmax >= 1:
        yield from ((c,) for c in nonzero)
    for length in range(2, lmax + 1):
        yield from product(nonzero, *[range(q)] * (length - 2), nonzero)


def burst_count(n: int, q: int, lmax: int) -> int:
    """Closed-form count of the nonzero bursts over GF(q) of length 1..lmax
    that fit in n positions without wrapping around."""
    total = 0
    for length in range(1, min(lmax, n) + 1):
        ends = q - 1 if length == 1 else (q - 1) ** 2 * q ** (length - 2)
        total += (n - length + 1) * ends
    return total

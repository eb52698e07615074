"""Cyclic codes: structured generator/parity-check matrices, syndromes,
membership, dual-containing tests, and the classical burst limit.

Conventions (0-based positions throughout):

* The code of length n with generator g(x) is {v : g(x) divides v(x)},
  vectors read as polynomials with position i the coefficient of x^i.
* G is the k x n matrix whose row i is x^i * g(x); its rows span the code.
* H is the r x n matrix whose row i carries the reversed parity-check
  polynomial, H[i][i+j] = h_{k-j}.  Its kernel is exactly the code, any
  vector supported on the last t positions has syndrome support in the
  last t coordinates, and the trailing r x r block is lower-triangular
  with the (nonzero) constant term h_0 on the diagonal.  That triangular
  tail is what the dependency-pair and error-trapping machinery exploit.
* The syndrome of a vector is the coefficient vector of v(x) mod g(x);
  it vanishes exactly on codewords, like H v^T, and the two are related
  by a fixed invertible map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .galois import FieldSpec
from .matgf import MatrixGF, row_reduce
from .polyring import Polynomial


@dataclass(frozen=True)
class CyclicCode:
    n: int
    field: FieldSpec
    g: Polynomial
    h: Polynomial

    @property
    def r(self) -> int:
        return self.g.degree

    @property
    def k(self) -> int:
        return self.n - self.g.degree

    @cached_property
    def G(self) -> MatrixGF:
        n, k = self.n, self.k
        gc = self.g.coeffs
        rows = []
        for i in range(k):
            row = [0] * n
            for j, c in enumerate(gc):
                row[i + j] = c
            rows.append(tuple(row))
        return MatrixGF(self.field, k, n, tuple(rows))

    @cached_property
    def H(self) -> MatrixGF:
        n, k, r = self.n, self.k, self.r
        hc = self.h.coeffs
        rows = []
        for i in range(r):
            row = [0] * n
            for j in range(k + 1):
                row[i + j] = hc[k - j]
            rows.append(tuple(row))
        return MatrixGF(self.field, r, n, tuple(rows))

    @cached_property
    def dual_g(self) -> Polynomial:
        """Generator polynomial of the Euclidean dual (monic reciprocal of h)."""
        return self.h.reciprocal().monic()

    def __repr__(self) -> str:
        sub = "" if self.field.m == 1 else f"_{self.field.q}"
        return f"CyclicCode([{self.n},{self.k}]{sub}, g={self.g})"


def code_from_generator(n: int, g: Polynomial) -> CyclicCode:
    if n < 1:
        raise ValueError("length must be positive")
    if g.is_zero or not g.is_monic:
        raise ValueError("generator must be monic and nonzero")
    field = g.field
    xn1 = Polynomial.xn_minus_1(field, n)
    h, rem = divmod(xn1, g)
    if not rem.is_zero:
        raise ValueError(f"{g!r} does not divide x^{n} - 1 over GF({field.q})")
    return CyclicCode(n, field, g, h)


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
    if len(v) != code.n:
        raise ValueError(f"vector length {len(v)} != n={code.n}")
    return (Polynomial.make(code.field, v) % code.dual_g).is_zero


def in_hermitian_dual(code: CyclicCode, v) -> bool:
    """True iff v lies in the Hermitian dual (GF(4): conjugate of the dual)."""
    f = code.field
    if len(v) != code.n:
        raise ValueError(f"vector length {len(v)} != n={code.n}")
    w = [f.conj(c) for c in v]
    return (Polynomial.make(f, w) % code.dual_g).is_zero


def hermitian_dual_containing(code: CyclicCode) -> bool:
    """Admissibility for the Hermitian construction (H H^dagger = 0).

    The Hermitian dual is the cyclic code generated by the conjugated
    dual generator, and it lies in the code iff g divides that generator.
    """
    if code.field.m != 2:
        raise ValueError("Hermitian construction requires GF(4)")
    return (code.dual_g.conjugate() % code.g).is_zero


def css_dual_containing(c1: CyclicCode, c2: CyclicCode) -> bool:
    """Admissibility for the CSS construction (H1 H2^T = 0): the dual of C2
    lies in C1, or equivalently the dual of C1 lies in C2, which holds iff
    the generator of C2 divides the dual generator of C1."""
    if c1.field != c2.field or c1.field.m != 1:
        raise ValueError("CSS construction requires a matching GF(2) pair")
    if c1.n != c2.n:
        raise ValueError("CSS construction requires equal lengths")
    return (c1.dual_g % c2.g).is_zero


def shortened_check_matrix(code: CyclicCode, t: int) -> MatrixGF:
    """H with its last t rows and last t columns deleted ((r-t) x (n-t))."""
    if not 0 <= t <= code.r:
        raise ValueError(f"t must be in [0, r={code.r}]")
    return code.H.submatrix(code.r - t, 0, code.n - t)


def classical_burst_limit(code: CyclicCode) -> int:
    """Largest b such that every b consecutive columns of the b-shortened
    check matrix are linearly independent; 0 when single errors collide."""
    if code.r < 1:
        return 0
    best = 0
    for b in range(1, min(code.r, code.n // 2) + 1):
        m = shortened_check_matrix(code, b)
        if m.rows < b:
            break
        ok = True
        for start in range(0, code.n - 2 * b + 1):
            block = MatrixGF(
                code.field,
                m.rows,
                b,
                tuple(row[start : start + b] for row in m.data),
            )
            if row_reduce(block).rank < b:
                ok = False
                break
        if not ok:
            break
        best = b
    return best


@dataclass(frozen=True)
class BurstPattern:
    """An error confined to consecutive positions, nonzero at both ends.

    The zero burst is represented by empty coeffs (length 0).  Bursts
    never wrap around the end of the block.
    """

    start: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.coeffs:
            if self.coeffs[0] == 0 or self.coeffs[-1] == 0:
                raise ValueError("burst endpoints must be nonzero")
            if self.start < 0:
                raise ValueError("negative start")
        elif self.start != 0:
            raise ValueError("zero burst is canonical with start 0")

    @property
    def length(self) -> int:
        return len(self.coeffs)

    def as_vector(self, n: int) -> tuple[int, ...]:
        if self.start + self.length > n:
            raise ValueError("burst does not fit (wrap-around is not allowed)")
        v = [0] * n
        for i, c in enumerate(self.coeffs):
            v[self.start + i] = c
        return tuple(v)

    @staticmethod
    def from_vector(v) -> BurstPattern:
        support = [i for i, c in enumerate(v) if c]
        if not support:
            return BurstPattern(0, ())
        lo, hi = support[0], support[-1]
        return BurstPattern(lo, tuple(v[lo : hi + 1]))


def burst_length(v) -> int:
    """Span between first and last nonzero entries (0 for the zero vector)."""
    support = [i for i, c in enumerate(v) if c]
    if not support:
        return 0
    return support[-1] - support[0] + 1

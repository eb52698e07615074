"""Acceptance suite: exact reproduction gates for the published tables and
the structural guarantees, one criterion per test (or per parametrized row).

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
of every criterion.

Known red row: table I's [[21,9]] pair is asserted at its printed value,
which exhaustive enumeration shows to be unattainable for any length-21
CSS pair (see notes in the repository history / fixtures flags); every
other criterion passes.
"""

import random

import pytest

from qburst.galois import GF2, GF4, field_make, self_dual_basis
from qburst.matgf import product_is_zero, rank
from qburst.polyring import Polynomial, divisor_generators
from qburst.cycliccode import code_from_generator, contains, syndrome
from qburst.qccburst import (
    NotDualContaining,
    brute_force_limit,
    degeneracy_check,
    qcc_burst_limit_css,
    qcc_burst_limit_hermitian,
)
from qburst.qetd import burst_census, trap_decode
from qburst.qrsburst import image_expand, rs_image_burst_limit, rs_make
from qburst.searchcli import SearchJob, parse_generator, search


def _report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def _hermitian(n, text):
    return qcc_burst_limit_hermitian(code_from_generator(n, parse_generator(text, GF4)))


def _css(n, *texts):
    codes = [code_from_generator(n, parse_generator(t, GF2)) for t in texts]
    return qcc_burst_limit_css(*codes)


# -- criterion 1: table I spot checks ---------------------------------------

CRITERION1_ROWS = [
    ("[[13,1]]", "hermitian", 13, ("(1^6 2^5 3^3 2^1 1^0)",), 3),
    ("[[15,3]]", "hermitian", 15, ("(1^6 2^3 1^0)",), 3),
    ("[[25,5]]", "hermitian", 25, ("(1^10 2^5 1^0)",), 5),
    ("[[35,7]]", "hermitian", 35, ("(1^14 3^7 1^0)",), 7),
    ("[[45,9]]", "hermitian", 45, ("(1^18 2^9 1^0)",), 9),
    ("[[23,1]]", "css", 23, ("(1^11 1^9 1^7 1^6 1^5 1^1 1^0)",), 5),
    ("[[21,9]]", "css", 21, ("(1^6 1^4 1^1 1^0)", "(1^6 1^4 1^2 1^1 1^0)"), 3),
]


@pytest.mark.parametrize(
    "name,construction,n,gens,expected",
    CRITERION1_ROWS,
    ids=[row[0] for row in CRITERION1_ROWS],
)
def test_criterion1_table1_spot_checks(name, construction, n, gens, expected):
    rep = _hermitian(n, gens[0]) if construction == "hermitian" else _css(n, *gens)
    ok = rep.L == expected
    _report(f"criterion 1 {name}: computed L={rep.L}, printed L={expected}: "
            f"{'PASS' if ok else 'FAIL'}")
    assert ok, (
        f"{name}: computed L={rep.L} (delta={rep.delta}) differs from the printed "
        f"L={expected}; exhaustive burst-pair enumeration confirms the computed value"
    )


# -- criterion 2: table II degenerate limits ---------------------------------

def test_criterion2_table2_degenerate_limits():
    rows = [
        ("[[25,1]]", "(1^12 2^11 1^10 2^7 3^6 2^5 1^2 2^1 1^0)", 25, 6, 5),
        ("[[29,1]]", "(1^14 2^13 2^11 3^10 1^9 3^8 2^7 3^6 1^5 3^4 2^3 2^1 1^0)", 29, 7, 6),
        (
            "[[37,1]]",
            "(1^18 2^17 1^16 1^15 2^14 2^13 3^12 1^11 2^10 1^9 2^8 1^7 3^6 2^5 2^4 1^3 1^2 2^1 1^0)",
            37, 9, 8,
        ),
        ("[[75,3]]", "(1^36 2^33 1^30 2^21 3^18 2^15 1^6 2^3 1^0)", 75, 18, 15),
    ]
    for name, gen, n, L, ell0 in rows:
        rep = _hermitian(n, gen)
        assert (rep.L, rep.ell0) == (L, ell0), f"{name}: {(rep.L, rep.ell0)} != {(L, ell0)}"
    _report("criterion 2 (table II degenerate limits, 4 rows exact): PASS")


# -- criterion 3: table III quantum RS limits --------------------------------

def test_criterion3_table3_rs_limits():
    rows = [
        (4, 5, 8, 5),
        (4, 1, 12, 9),
        (5, 23, 7, 6),
        (5, 1, 35, 31),
        (6, 55, 8, 7),
        (6, 53, 11, 7),
        (6, 49, 17, 13),
    ]
    for m, K, L, lower in rows:
        rep = rs_image_burst_limit(rs_make(m, K))
        assert (rep.L, rep.lower) == (L, lower), (
            f"m={m} K={K}: computed {(rep.L, rep.lower)} != printed {(L, lower)}"
        )
    _report("criterion 3 (table III quantum RS limits, 7 rows incl. three m=6): PASS")


# -- criterion 4: table IV decoder census ------------------------------------

def test_criterion4_table4_census():
    rows = [
        ("hermitian", 5, "(1^2 2^1 1^0)", 51, 15, 15),
        ("css", 7, "(1^3 1^1 1^0)", 255, 72, 57),
        ("hermitian", 13, "(1^6 2^5 3^3 2^1 1^0)", 25599, 7623, 2865),
        ("hermitian", 17, "(1^8 3^7 3^5 3^4 3^3 3^1 1^0)", 507903, 145401, 41064),
    ]
    for construction, n, gen, N, ND, N0 in rows:
        field = GF4 if construction == "hermitian" else GF2
        code = code_from_generator(n, parse_generator(gen, field))
        stats = burst_census(code, construction)
        assert (stats.total, stats.decoded, stats.exact) == (N, ND, N0), (
            f"[[{n},1]]: {(stats.total, stats.decoded, stats.exact)} != {(N, ND, N0)}"
        )
    _report("criterion 4 (table IV census, 4 rows exact): PASS")


# -- criterion 5: oracle equivalence ------------------------------------------

def test_criterion5_oracle_equivalence():
    checked = 0
    for n in (3, 5, 7, 9, 11, 13, 15):
        for g in divisor_generators(n, GF4, (1, n - 1)):
            code = code_from_generator(n, g)
            try:
                rep = qcc_burst_limit_hermitian(code)
            except NotDualContaining:
                continue
            oracle = brute_force_limit(code, "hermitian")
            assert (rep.L, rep.ell0) == oracle, f"n={n} g={g.coeffs}"
            checked += 1
    assert checked >= 30
    _report(f"criterion 5 (oracle equivalence over {checked} codes): PASS")


# -- criterion 6: quantum Reiger bound invariant -------------------------------

def test_criterion6_reiger_invariant():
    rng = random.Random(20260810)
    total = 0
    for n in range(3, 50, 2):
        divisors = list(divisor_generators(n, GF4, (1, n - 1)))
        if len(divisors) > 64:
            divisors = rng.sample(divisors, 64)
        for g in divisors:
            code = code_from_generator(n, g)
            try:
                rep = qcc_burst_limit_hermitian(code)
            except NotDualContaining:
                continue
            assert rep.n - rep.K - 4 * rep.L >= 0, f"QRB violated at n={n} g={g.coeffs}"
            total += 1
    reports = search(SearchJob(3, 15, "gf4", None))
    for rep in reports:
        assert rep.delta >= 0
    assert total >= 50
    _report(f"criterion 6 (Reiger bound over {total}+ randomized reports): PASS")


# -- criterion 7: decoder invariants -------------------------------------------

def _burst(n, start, coeffs):
    """The length-n vector holding `coeffs` from position `start` on."""
    return (0,) * start + tuple(coeffs) + (0,) * (n - start - len(coeffs))


def _random_burst(rng, n, q, max_len):
    """(start, coeffs) of a random burst of length 1..max_len."""
    length = rng.randrange(1, max_len + 1)
    start = rng.randrange(0, n - length + 1)
    coeffs = [rng.randrange(1, q)]
    for _ in range(length - 2):
        coeffs.append(rng.randrange(q))
    if length > 1:
        coeffs.append(rng.randrange(1, q))
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return start, tuple(coeffs)


def test_criterion7_decoder_invariants():
    rng = random.Random(77)
    cases = [
        (code_from_generator(5, parse_generator("(1^2 2^1 1^0)", GF4)), 1),
        (code_from_generator(7, parse_generator("(1^3 1^1 1^0)", GF2)), 1),
        (code_from_generator(13, parse_generator("(1^6 2^5 3^3 2^1 1^0)", GF4)), 3),
    ]
    for code, L in cases:
        q = code.field.q
        for _ in range(10_000):
            start, coeffs = _random_burst(rng, code.n, q, L)
            e = _burst(code.n, start, coeffs)
            s = Polynomial.make(code.field, syndrome(code, e))
            ehat = trap_decode(s, code)
            assert syndrome(code, ehat) == syndrome(code, e)
            if start + len(coeffs) <= code.r:
                assert tuple(s.coeff(i) for i in range(code.r)) == e[: code.r]
                assert ehat == e
            assert e == ehat or degeneracy_check(code, e, ehat), (
                f"burst {coeffs} at {start} of length <= L decoded with outcome failure"
            )
    _report("criterion 7 (decoder invariants, 3x10^4 bursts): PASS")


# -- criterion 8: algebra suites ------------------------------------------------

def test_criterion8_algebra_suites():
    rng = random.Random(88)
    fields = [field_make(m) for m in (2, 3, 4, 5, 6)]
    for _ in range(10_000):
        f = rng.choice(fields)
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        assert f.mul(a ^ b, a ^ b) == f.mul(a, a) ^ f.mul(b, b)

    for n, field in ((7, GF2), (15, GF2), (5, GF4), (15, GF4)):
        for g in divisor_generators(n, field, (1, n - 1)):
            code = code_from_generator(n, g)
            assert code.g * code.h == Polynomial.xn_minus_1(field, n)
            assert product_is_zero(code.H, code.G.transpose())
            assert rank(code.G) == code.k and rank(code.H) == code.r

    for m in range(1, 7):
        f = field_make(m)
        basis = self_dual_basis(f)
        gram = basis.gram()
        assert all(
            gram[i][j] == (1 if i == j else 0) for i in range(m) for j in range(m)
        )

    rs = rs_make(4, 5)
    for _ in range(500):
        a = tuple(rng.randrange(16) for _ in range(rs.n))
        b = tuple(rng.randrange(16) for _ in range(rs.n))
        ia, ib = image_expand(a, rs.basis), image_expand(b, rs.basis)
        assert image_expand(tuple(x ^ y for x, y in zip(a, b)), rs.basis) == tuple(
            x ^ y for x, y in zip(ia, ib)
        )
    for row in rs.code.H.data:
        assert contains(rs.code, row)
    _report("criterion 8 (algebra suites at stated scale): PASS")

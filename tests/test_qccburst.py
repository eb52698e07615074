import random
from itertools import islice, product
from math import gcd, prod

import pytest

from qburst.galois import GF2, GF4
from qburst.matgf import MatrixGF, row_reduce
from qburst.polyring import Polynomial, _x_powers, divisor_generators, factor_xn_minus_1
from qburst.cycliccode import (
    burst_length,
    code_from_generator,
    contains,
    dual_containing_codes,
    syndrome,
)
from qburst import qccburst
from qburst.qccburst import (
    NotDualContaining,
    _components,
    _shortest_pair,
    brute_force_limit,
    classical_burst_limit,
    degeneracy_check,
    qcc_burst_limit,
    qcc_burst_limit_css,
    qcc_burst_limit_hermitian,
    reiger_delta,
    window_pairs,
)
from qburst.searchcli import fixtures_dir, parse_generator


def make4(n, text):
    return code_from_generator(n, parse_generator(text, GF4))


def make2(n, text):
    return code_from_generator(n, parse_generator(text, GF2))


def sweep_powers(code):
    """The sweep's one list: x^j modulo the monic reciprocal g* of g, j < n."""
    return list(islice(_x_powers(code.g.reciprocal().monic()), code.n))


def unpacked(code, packed):
    """The packed polynomial as a length-n vector, low degree first."""
    coeffs = Polynomial(code.field, packed).coeffs
    return coeffs + (0,) * (code.n - len(coeffs))


QUAD5 = make4(5, "(1^2 2^1 1^0)")
CODE25 = make4(25, "(1^12 2^11 1^10 2^7 3^6 2^5 1^2 2^1 1^0)")
CODE15 = make4(15, "(1^6 2^3 1^0)")


def test_build_window_bounds():
    rank, pairs = window_pairs(CODE15, 3, 0)
    # a window has `width` columns and r - width rows
    assert rank + len(pairs) == 3 and rank <= CODE15.r - 3
    window_pairs(CODE15, 3, CODE15.n - 6)  # last admissible start
    window_pairs(CODE15, CODE15.r, 0)  # widths run up to r
    for width in (0, CODE15.r + 1):
        with pytest.raises(ValueError):
            window_pairs(CODE15, width, 0)
    with pytest.raises(ValueError):
        window_pairs(CODE15, 3, CODE15.n - 5)
    with pytest.raises(ValueError):
        window_pairs(CODE15, 3, -1)


def test_build_window_matches_check_polynomial():
    # window entries are parity-check coefficients laid out on the diagonal:
    # row i of H carries h reversed starting at column i; the width-3 window
    # at start 0 is the first 3 columns of H's first r - 3 rows
    block = CODE15.H.submatrix(CODE15.r - 3, 0, 3)
    hc = CODE15.h.coeffs
    k = CODE15.k
    for i in range(block.rows):
        for j in range(3):
            expected = hc[k - (j - i)] if 0 <= j - i <= k else 0
            assert block.data[i][j] == expected


def test_single_column_windows():
    for start in range(0, QUAD5.n - 2 + 1):
        rank, pairs = window_pairs(QUAD5, 1, start)
        assert rank + len(pairs) == 1


def test_dependency_pairs_full_rank_empty():
    assert window_pairs(CODE15, 3, 0) == (3, ())


def test_dependency_pairs_postconditions():
    # ell = 6 window of the [[25,1]] code at start 4 is rank deficient
    rank, pairs = window_pairs(CODE25, 6, 4)
    assert rank == 5
    assert len(pairs) == 1
    for e, f in pairs:
        assert syndrome(CODE25, e) == syndrome(CODE25, f)
        diff = tuple(a ^ b for a, b in zip(e, f))
        assert contains(CODE25, diff)
        assert all(c == 0 for i, c in enumerate(e) if not 4 <= i < 10)
        assert all(c == 0 for i, c in enumerate(f) if i < CODE25.n - 6)
        assert burst_length(e) <= 6 and burst_length(f) <= 6


def test_degeneracy_check():
    zero = (0,) * 5
    assert degeneracy_check(QUAD5, zero, zero)
    stabilizer = tuple(GF4.conj(v) for v in QUAD5.H.data[0])
    assert degeneracy_check(QUAD5, stabilizer, zero)
    # (0,0,1,w,1) is a codeword outside the Hermitian dual
    assert not degeneracy_check(QUAD5, (0, 0, 1, 2, 1), zero)
    with pytest.raises(ValueError):
        degeneracy_check(QUAD5, (1, 0, 0, 0, 0), zero)


def test_limits_match_published_spot_values():
    rep = qcc_burst_limit_hermitian(CODE15)
    assert (rep.n, rep.K, rep.L, rep.delta) == (15, 3, 3, 0)
    rep = qcc_burst_limit_hermitian(make4(13, "(1^6 2^5 3^3 2^1 1^0)"))
    assert (rep.K, rep.L, rep.delta) == (1, 3, 0)
    rep = qcc_burst_limit_hermitian(CODE25)
    assert (rep.L, rep.ell0) == (6, 5)
    rep = qcc_burst_limit_hermitian(QUAD5)
    assert (rep.L, rep.ell0) == (1, 1)
    assert brute_force_limit(QUAD5, "hermitian") == (1, 1)


def test_limit_dispatch_and_css():
    rep = qcc_burst_limit(HAMMING := make2(7, "(1^3 1^1 1^0)"), "css")
    assert (rep.n, rep.K, rep.L) == (7, 1, 1)
    rep2 = qcc_burst_limit_css(HAMMING, HAMMING)
    assert rep == rep2
    for code in (HAMMING, make2(15, "(1^4 1^3 1^0)"), make2(21, "(1^9 1^8 1^5 1^4 1^2 1^1 1^0)")):
        assert qcc_burst_limit_css(code) == qcc_burst_limit_css(code, code)
    with pytest.raises(ValueError):
        qcc_burst_limit(HAMMING, "steane")


def test_not_dual_containing_rejected():
    parity = make2(3, "(1^1 1^0)")
    with pytest.raises(NotDualContaining):
        qcc_burst_limit_css(parity)
    full = code_from_generator(5, Polynomial.xn_minus_1(GF4, 5).monic())
    with pytest.raises(NotDualContaining):
        qcc_burst_limit_hermitian(full)
    with pytest.raises(NotDualContaining):
        brute_force_limit(parity, "css")


@pytest.mark.parametrize("field,construction", [(GF4, "hermitian"), (GF2, "css")],
                         ids=["gf4", "gf2"])
def test_construction_check_reads_the_stored_stabilizer(field, construction):
    # mutation: a tree-built code carrying a wrong s (s + 1, which g of
    # degree >= 1 does not divide) fails the construction check
    codes = 0
    for n in (15, 21, 31):
        for code, _ in dual_containing_codes(n, field):
            _components(code, construction)
            vars(code)["stabilizer"] += Polynomial.one(field)
            with pytest.raises(NotDualContaining):
                _components(code, construction)
            codes += 1
    assert codes == {GF4: 78, GF2: 36}[field]


def test_generator_of_degree_zero_rejected():
    # g = 1 leaves no stabilizer (r = 0): [[7,7]] is no quantum code to report
    for codes, construction in (
        (make4(7, "(1^0)"), "hermitian"),
        (make2(7, "(1^0)"), "css"),
        ((make2(7, "(1^3 1^1 1^0)"), make2(7, "(1^0)")), "css"),
    ):
        with pytest.raises(ValueError, match="degree"):
            qcc_burst_limit(codes, construction)
        with pytest.raises(ValueError, match="degree"):
            brute_force_limit(codes, construction)
    with pytest.raises(ValueError, match="degree"):
        qcc_burst_limit_hermitian(make4(7, "(1^0)"))
    with pytest.raises(ValueError, match="degree"):
        qcc_burst_limit_css(make2(7, "(1^0)"))


def test_classical_limit_of_degree_zero_generator_is_zero():
    # g = 1 (r = 0): H has no rows, so no column of it is independent and
    # every single error collides with every other
    for field in (GF2, GF4):
        for n in (5, 7, 8):
            code = code_from_generator(n, Polynomial.one(field))
            assert code.r == 0 and code.H.rows == 0 and code.H.cols == n
            assert classical_burst_limit(code) == 0
            assert sweep_powers(code) == [0] * n


def test_generator_count_checked():
    with pytest.raises(ValueError, match="generator"):
        qcc_burst_limit((QUAD5, QUAD5), "hermitian")
    hamming = make2(7, "(1^3 1^1 1^0)")
    with pytest.raises(ValueError, match="generator"):
        qcc_burst_limit((hamming,) * 3, "css")


def test_reiger_delta():
    assert reiger_delta(15, 3, 3) == 0
    assert reiger_delta(21, 9, 3) == 0  # the arithmetic, independent of any table
    assert reiger_delta(10, 4, 0) == 6


def test_brute_force_guard():
    with pytest.raises(ValueError, match="guard"):
        brute_force_limit(CODE25, "hermitian", guard=1000)


def test_determinism():
    a = qcc_burst_limit_hermitian(CODE25)
    b = qcc_burst_limit_hermitian(CODE25)
    assert a == b


R1_PAIRS = [
    (make2(7, a), make2(7, b))
    for a, b in (("(1^1 1^0)", "(1^3 1^1 1^0)"), ("(1^1 1^0)", "(1^3 1^2 1^0)"))
    for a, b in ((a, b), (b, a))
]


def _small_quantum_codes():
    """Hermitian codes with n <= 9, single-code CSS codes with odd n <= 21,
    and CSS pairs at n = 7 with one component of r = 1 (Reiger cap 0)."""
    for n in (3, 5, 7, 9):
        for g in divisor_generators(n, GF4, (1, n - 1)):
            yield code_from_generator(n, g), "hermitian"
    for n in range(3, 22, 2):
        for g in divisor_generators(n, GF2, (1, n - 1)):
            yield code_from_generator(n, g), "css"
    for pair in R1_PAIRS:
        yield pair, "css"


def test_monotonicity_and_oracle_small():
    checked = 0
    for codes, construction in _small_quantum_codes():
        try:
            rep = qcc_burst_limit(codes, construction)
        except NotDualContaining:
            continue
        components = codes if isinstance(codes, tuple) else (codes,)
        classical = min(classical_burst_limit(c) for c in components)
        assert rep.ell0 <= rep.L <= classical
        assert brute_force_limit(codes, construction) == (rep.L, rep.ell0)
        assert rep.delta >= 0
        checked += 1
    assert checked > len(R1_PAIRS) + 12


def test_cap_zero_component_flags_match_oracle():
    # r = 1 gives a Reiger cap of 0, yet the width-1 windows still decide
    # whether a single-error collision is nondegenerate; the oracle with
    # cap 1 tells the same (every component here has cap <= 1)
    for pair in R1_PAIRS:
        rep = qcc_burst_limit_css(*pair)
        assert (rep.L, rep.ell0) == (0, 0)
        one_error_safe = brute_force_limit(pair, "css", cap=1)[0] == 1
        assert ("cap-limited" in rep.flags) == one_error_safe


def test_css_pair_limits_agree_with_oracle():
    c1 = make2(21, "(1^6 1^4 1^1 1^0)")
    c2 = make2(21, "(1^6 1^4 1^2 1^1 1^0)")
    rep = qcc_burst_limit_css(c1, c2)
    assert rep.K == 9
    assert brute_force_limit((c1, c2), "css") == (rep.L, rep.ell0)
    assert rep.construction == "css"
    assert rep.generators == (c1.g, c2.g)


# ---------------------------------------------------------------------------
# The shift kernel against window row reduction
# ---------------------------------------------------------------------------

CSS21 = (make2(21, "(1^6 1^4 1^1 1^0)"), make2(21, "(1^6 1^4 1^2 1^1 1^0)"))
KERNEL_SAMPLE = [
    (QUAD5, "hermitian"),
    (CODE15, "hermitian"),
    (CODE25, "hermitian"),
    (make4(21, "(1^9 1^3 1^0)"), "hermitian"),
    (make2(15, "(1^4 1^3 1^0)"), "css"),
    (make2(31, "(1^10 1^9 1^7 1^1 1^0)"), "css"),
    (make2(31, "(1^15 1^13 1^12 1^11 1^9 1^7 1^5 1^4 1^3 1^1 1^0)"), "css"),
    (CSS21, "css"),
]


def test_shift_kernel_matches_window_rank_at_every_width():
    # window (start T - w, width w) is rank deficient iff d(T) < w, at every
    # width 1 .. min(T, n - T, r); and up to r // 2 a window holds a
    # nondegenerate pair iff the minimal pair of its shift is nondegenerate
    deficient = harmless_seen = 0
    for codes, construction in KERNEL_SAMPLE:
        for code, dual_of in _components(codes, construction)[1]:
            n, r = code.n, code.r
            powers = sweep_powers(code)
            for shift in range(1, n):
                top = min(shift, n - shift, r)
                found = _shortest_pair(code, powers, shift, top)
                d = top if found is None else found[0]
                for width in range(1, top + 1):
                    rank, _ = window_pairs(code, width, shift - width)
                    assert (rank < width) == (d < width), (code, shift, width)
                if found is None:
                    continue
                d, e, f = found[0], unpacked(code, found[1]), unpacked(code, found[2])
                deficient += 1
                assert syndrome(code, e) == syndrome(code, f)
                assert e != f and burst_length(e) <= d + 1 and burst_length(f) <= d + 1
                assert all(c == 0 for i, c in enumerate(e) if not shift - d - 1 <= i < shift)
                assert all(c == 0 for i, c in enumerate(f) if i < n - d - 1)
                harmless = degeneracy_check(code, e, f, dual_of=dual_of)
                harmless_seen += harmless
                for width in range(d + 1, min(shift, n - shift, r // 2) + 1):
                    _, pairs = window_pairs(code, width, shift - width)
                    nondegenerate = any(
                        not degeneracy_check(code, e2, f2, dual_of=dual_of) for e2, f2 in pairs
                    )
                    assert nondegenerate == (not harmless), (code, shift, width)
    assert deficient > 100 and harmless_seen > 0


def _divisors(n, field):
    """Every monic divisor of x^n - 1.  With n = o * 2^k and o odd, x^n - 1
    is (x^o - 1)^(2^k), so its divisors are the products of the factors of
    x^o - 1, each to a power 0 .. 2^k."""
    odd, power = n, 1
    while odd % 2 == 0:
        odd, power = odd // 2, 2 * power
    factors = factor_xn_minus_1(odd, field)
    for powers in product(range(power + 1), repeat=len(factors)):
        yield prod((p for p, k in zip(factors, powers) for _ in range(k)),
                   start=Polynomial.one(field))


def test_sweep_matrices_reduce_as_in_natural_order():
    # The trimmed kernel against the full natural-order matrix of its shift:
    # r rows, the columns x^(T+i) mod g and u_i = x^i interleaved by degree
    # i, whose first free column p gives d(T) = p // 2.  For up to 48
    # divisors g of x^n - 1 per length n <= 31 (1, x^n - 1 and a seeded
    # sample of the rest), every shift T = 1 .. n - 1 and every width
    # W <= min(T, n - T, r), `_shortest_pair` is deficient iff d(T) < W,
    # with the same d, and its pair satisfies x^T a = b (mod g) with
    # max(deg a, deg b) = d (GF(4) skips n = 30, whose 19,683 divisors
    # take 0.7 s just to list).  The natural matrix is reduced once per
    # shift, at the widest W: the leftmost-greedy reduction of its first
    # 2W columns is that of the matrix at width W.
    # The span bound that the sweep skips by: a pair of width W <= T at
    # shift T is the nonzero burst x^T a - b of length T + W, which g divides
    # only when T + W > r, so every shift is full rank at every W <= T with
    # T + W <= r (None at the widest such W: d(T) >= W, so at every narrower
    # one too).  At T + W = r + 1 the burst is c g itself, so the shift is
    # deficient iff the digits W .. T - 1 of g are zero, and some shift the
    # sweep reduces (W <= r // 2) is: the bound is tight.  The classical
    # sweep, which skips by that bound, gives the least d(T) of all shifts
    # T = 1 .. n // 2, each reduced at width min(T, cap)
    checked = deficient = tight = 0
    for field in (GF2, GF4):
        m = field.m
        for n in range(1, 32):
            if field is GF4 and n == 30:
                continue
            divisors = list(_divisors(n, field))  # 1 first, x^n - 1 last
            if len(divisors) > 48:
                sample = random.Random(f"{field.q}:{n}").sample(divisors[1:-1], 46)
                divisors = [divisors[0], divisors[-1], *sample]
            for g in divisors:
                code = code_from_generator(n, g)
                r = code.r
                powers = sweep_powers(code)
                natural = list(islice(_x_powers(g), n))
                for shift in range(1, n):
                    widest = min(shift, n - shift, r)
                    columns = []
                    for i in range(widest):
                        columns += natural[shift + i], 1 << i * m
                    free = row_reduce(MatrixGF(field, r, tuple(columns))).free_cols
                    want = free[0] // 2 if free else widest
                    for width in range(1, widest + 1):
                        found = _shortest_pair(code, powers, shift, width)
                        checked += 1
                        if found is None:
                            assert want >= width, (g, shift, width)
                            continue
                        d, e, f = found
                        assert d == want, (g, shift, width)
                        a, b = e >> (shift - d - 1) * m, f >> (n - d - 1) * m
                        assert (a << (shift - d - 1) * m, b << (n - d - 1) * m) == (e, f)
                        degree = max(Polynomial(field, a).degree, Polynomial(field, b).degree)
                        assert a and degree == d, (g, shift, width)
                        assert (Polynomial(field, a << shift * m ^ b) % g).is_zero, (g, shift)
                        deficient += 1
                for shift in range(1, r):
                    assert _shortest_pair(code, powers, shift, min(shift, r - shift)) is None, g
                for width in range(1, (r + 1) // 2 + 1):
                    shift = r + 1 - width
                    if shift < n:
                        found = _shortest_pair(code, powers, shift, width)
                        assert (found is not None) == (not any(g.coeffs[width:shift])), g
                        tight += found is not None and width <= r // 2
                cap = max(r // 2, 1)
                minimal = (_shortest_pair(code, powers, shift, min(shift, cap))
                           for shift in range(1, n // 2 + 1))
                assert classical_burst_limit(code) == min(
                    [r // 2] + [pair[0] for pair in minimal if pair is not None]), g
    assert checked > 10**5 and deficient > 10**4 and tight > 0


def _width_sweep(code, dual_of):
    """The width-ascending sweep that the shift kernel replaced: every
    window of width 1 .. r // 2 (width 1 even when r // 2 is 0), start by
    start, judged pair by pair; returns (L, ell0, flags, classical limit)."""
    cap = ell0 = code.r // 2
    classical = None
    for width in range(1, max(cap, 1) + 1):
        for start in range(code.n - 2 * width + 1):
            rank, pairs = window_pairs(code, width, start)
            if rank == width:
                continue
            ell0 = min(ell0, width - 1)
            classical = ell0 if classical is None else classical
            for e, f in pairs:
                if not degeneracy_check(code, e, f, dual_of=dual_of):
                    return width - 1, ell0, (), classical
    return cap, ell0, ("cap-limited",), cap if classical is None else classical


def _fixture_css_codes():
    """The CSS rows of tables 1 and 2 whose generators build codes."""
    for table in ("table1.tsv", "table2.tsv"):
        for line in (fixtures_dir() / table).read_text().splitlines():
            fields = line.split("\t")
            if line.startswith("#") or fields[0] != "css":
                continue
            n = int(fields[1].strip("[]").split(",")[0])
            try:
                yield tuple(make2(n, text) for text in fields[-2].split(";"))
            except ValueError:  # a misprinted generator (flagged in the fixture)
                continue


def _sweep_oracle_codes():
    for field, construction in ((GF4, "hermitian"), (GF2, "css")):
        for n in range(3, 32, 2):
            for code, _ in dual_containing_codes(n, field):
                yield code, construction
    for pair in R1_PAIRS:
        yield pair, "css"
    for codes in _fixture_css_codes():
        yield codes, "css"


def test_limits_match_width_sweep():
    checked = fixture_rows = 0
    for codes, construction in _sweep_oracle_codes():
        try:
            _, sweeps = _components(codes, construction)
        except NotDualContaining:
            continue
        old = [_width_sweep(*sweep) for sweep in sweeps]
        rep = qcc_burst_limit(codes, construction)
        assert (rep.L, rep.ell0, rep.flags) == (
            min(o[0] for o in old),
            min(o[1] for o in old),
            tuple(sorted(set.intersection(*(set(o[2]) for o in old)))),
        ), codes
        for (code, _), o in zip(sweeps, old):
            assert classical_burst_limit(code) == o[3], code
        checked += 1
        fixture_rows += isinstance(codes, tuple) and codes[0].n > 21
    assert checked > 140 and fixture_rows >= 5


def test_one_row_reduction_per_shift(monkeypatch):
    # at most one reduction per shift T = 1 .. n // 2 (shift n - T mirrors
    # T), and none where T + limit <= r (the span bound); the cap-limited
    # [[45,9]] (r = 18) keeps limit = r // 2 = 9, so it reduces exactly the
    # shifts T = r - r // 2 + 1 .. n // 2, each at width W = 9, with the
    # rows lo + 1 .. min(T, r) - 1 and 2 (W - lo) - 1 columns, lo = max(0, r - T)
    calls = []
    reduce_ = qccburst.row_reduce
    monkeypatch.setattr(qccburst, "row_reduce", lambda m: calls.append(m) or reduce_(m))
    qcc_burst_limit_hermitian(CODE25)
    assert 0 < len(calls) <= CODE25.n // 2
    assert all(m.rows < CODE25.r and m.cols < CODE25.r for m in calls)
    code = make4(45, "(1^18 2^9 1^0)")
    calls.clear()
    rep = qcc_burst_limit_hermitian(code)
    n, r = code.n, code.r
    assert rep.flags == ("cap-limited",) and rep.K == 9
    assert len(calls) == n // 2 - (r - r // 2) == 13
    assert [(m.rows, m.cols) for m in calls] == (
        [(2 * T - 19, 2 * T - 19) for T in range(10, 18)] + [(17, 17)] * 5)


def _interleaved(code, t):
    """The code of g(x^t), of length t n: the depth-t interleaving of `code`."""
    g, m = code.g, code.field.m
    spread = sum(c << t * k * m for k, c in enumerate(g.coeffs))
    return code_from_generator(t * code.n, Polynomial(code.field, spread))


def test_interleaving_multiplies_the_limits():
    # g(x^t) interleaves g's code to depth t, and its stabilizer generator
    # is s(x^t): a burst of length <= t l meets each of the t words in a
    # burst of length <= l, a failing pair of length l + 1 spreads to a
    # span of t l + 1, and divisibility by s(x^t) splits by exponent class
    # mod t.  So L and ell0 scale by t, unless the sweep of g stopped at the
    # Reiger cap, whose L is then only a lower bound: t L' <= L <= t r' // 2
    cases = capped = 0
    for field, construction in ((GF2, "css"), (GF4, "hermitian")):
        for n in range(3, 32, 2):
            for code, _ in dual_containing_codes(n, field):
                base = qcc_burst_limit(code, construction)
                for t in (3, 5, 7):
                    rep = qcc_burst_limit(_interleaved(code, t), construction)
                    cases += 1
                    if base.flags:
                        capped += 1
                        assert t * base.L <= rep.L <= t * code.r // 2, (code, t)
                    else:
                        assert (rep.L, rep.ell0) == (t * base.L, t * base.ell0), (code, t)
    assert (cases, capped) == (432, 168)
    # three lengths past 1000, where brute force cannot reach
    for code, construction, t, L in (
        (make2(31, "(1^10 1^8 1^7 1^6 1^4 1^3 1^2 1^1 1^0)"), "css", 33, 132),
        (make4(21, "(1^9 1^3 1^0)"), "hermitian", 49, 147),
        (make4(17, "(1^4 2^3 1^2 2^1 1^0)"), "hermitian", 61, 61),
    ):
        base = qcc_burst_limit(code, construction)
        rep = qcc_burst_limit(_interleaved(code, t), construction)
        assert base.flags == rep.flags == () and rep.n == t * code.n >= 1000
        assert (rep.L, rep.ell0) == (t * base.L, t * base.ell0) == (L, L), code


def _one_factor_per_pair(n, field):
    """The code whose g is the lower-index factor of each pair {p, p'} of
    distinct partners among the factors of x^n - 1 (p' = conj of the monic
    reciprocal): g | s, so it is dual-containing."""
    factors = factor_xn_minus_1(n, field)
    index = {p: i for i, p in enumerate(factors)}
    partner = [index[p.reciprocal().monic().conjugate()] for p in factors]
    g = prod((p for i, p in enumerate(factors) if i < partner[i]), start=Polynomial.one(field))
    return code_from_generator(n, g)


@pytest.mark.parametrize("n, field, construction, K, L", [
    (1023, GF2, "css", 33, 243),  # r = 495
    (341, GF4, "hermitian", 11, 81),  # r = 165
], ids=["gf2-1023", "gf4-341"])
def test_exact_limits_of_long_codes(n, field, construction, K, L):
    # no interleaving (g is no polynomial in x^t, t > 1), so no law scales
    # a short code's limits up to these; the GF(2) code's shift matrices
    # run to 494 dense rows, which no other test builds
    code = _one_factor_per_pair(n, field)
    assert gcd(*(i for i, c in enumerate(code.g.coeffs) if c)) == 1
    rep = qcc_burst_limit(code, construction)
    assert (rep.n, rep.K, rep.L, rep.ell0, rep.flags) == (n, K, L, L, ())


def _rotate(v, k):
    """x^k v mod x^n - 1, for 0 < k < n."""
    return v[-k:] + v[:-k]


def test_mirror_shifts_hold_the_swapped_pairs():
    # x^T a = b (mod g) iff x^(n-T) b = a (mod g): shift n - T has the same
    # d, its minimal pair is x^(n-T) times (f, e), up to a scalar, and that
    # pair is degenerate iff the pair at T is
    mirrored = harmless_seen = 0
    for codes, construction in KERNEL_SAMPLE:
        for code, dual_of in _components(codes, construction)[1]:
            n, field = code.n, code.field
            powers = sweep_powers(code)
            for shift in range(1, n):
                width = min(shift, n - shift, max(code.r // 2, 1))
                found = _shortest_pair(code, powers, shift, width)
                mirror = _shortest_pair(code, powers, n - shift, width)
                assert (found is None) == (mirror is None), (code, shift)
                if found is None:
                    continue
                (d, e, f), (d2, e2, f2) = found, mirror
                assert d == d2, (code, shift)
                e, f, e2, f2 = (unpacked(code, v) for v in (e, f, e2, f2))
                swapped = _rotate(f, n - shift), _rotate(e, n - shift)
                assert any(
                    swapped == tuple(tuple(field.mul(c, x) for x in v) for v in (e2, f2))
                    for c in range(1, field.q)
                ), (code, shift)
                harmless = degeneracy_check(code, e, f, dual_of=dual_of)
                assert harmless == degeneracy_check(code, e2, f2, dual_of=dual_of)
                mirrored += 1
                harmless_seen += harmless
    assert mirrored > 40 and 0 < harmless_seen < mirrored


def _even_length_codes():
    """Every code of even length n (GF(2) n <= 12, GF(4) n <= 8) with a
    generator of degree 1 .. n - 1, where x^n - 1 has repeated roots
    (`_divisors`)."""
    for field, construction, top in ((GF2, "css", 12), (GF4, "hermitian", 8)):
        for n in range(2, top + 1, 2):
            for g in _divisors(n, field):
                if 1 <= g.degree < n:
                    yield code_from_generator(n, g), construction


def test_even_length_limits_match_oracle():
    # at even n the shift T = n/2 is its own mirror, and the sweep must keep it
    checked = 0
    for code, construction in _even_length_codes():
        try:
            rep = qcc_burst_limit(code, construction)
        except NotDualContaining:
            continue
        assert brute_force_limit(code, construction) == (rep.L, rep.ell0), code
        checked += 1
    assert checked == 35

import random
import time
from collections import Counter
from itertools import combinations
from operator import add

import pytest

from qburst.galois import GF2, GF4, OMEGA, _xor_sums
from qburst.polyring import Polynomial, divisor_generators
from qburst.cycliccode import (
    _burst_patterns,
    burst_count,
    code_from_generator,
    contains,
    dual_containing_codes,
    syndrome,
    vector_poly,
)
from qburst.qccburst import (
    NotDualContaining,
    _components,
    _sweep_report,
    degeneracy_check,
    qcc_burst_limit,
)
from qburst.qetd import (
    QetdStats,
    _PackedDecoder,
    _position_syndrome_tables,
    _trap_search,
    burst_census,
    trap_decode,
)
from qburst.searchcli import parse_generator

STEANE = code_from_generator(7, parse_generator("(1^3 1^1 1^0)", GF2))
QUAD5 = code_from_generator(5, parse_generator("(1^2 2^1 1^0)", GF4))
CODE13 = code_from_generator(13, parse_generator("(1^6 2^5 3^3 2^1 1^0)", GF4))


def _burst(n, start, coeffs):
    """The length-n vector holding `coeffs` from position `start` on."""
    return (0,) * start + tuple(coeffs) + (0,) * (n - start - len(coeffs))


def vec_syndrome_poly(code, e):
    return Polynomial.make(code.field, syndrome(code, e))


def test_decode_examples():
    # burst already in the low-order positions reads off directly
    assert trap_decode(Polynomial.make(GF2, (1,)), STEANE) == (1, 0, 0, 0, 0, 0, 0)
    # syndrome of x^6 is x^2 + 1; trapping must recover the shifted monomial
    assert trap_decode(Polynomial.make(GF2, (1, 0, 1)), STEANE) == (0,) * 6 + (1,)
    assert trap_decode(Polynomial.zero(GF2), STEANE) == (0,) * 7


def test_trap_state_invariants():
    from qburst.qetd import _trap_search

    s = Polynomial.make(GF2, (1, 0, 1))
    z, v = _trap_search(s, STEANE)
    assert 0 <= v < STEANE.n
    assert z == 1 and v == 3  # single error trapped after 3 shifts


def test_decode_validates_input():
    with pytest.raises(ValueError):
        trap_decode(Polynomial.make(GF2, (0, 0, 0, 1)), STEANE)  # degree r
    with pytest.raises(ValueError):
        trap_decode(Polynomial.make(GF4, (1,)), STEANE)


def test_decode_syndrome_consistency():
    rng = random.Random(17)
    for code in (STEANE, QUAD5, CODE13):
        q = code.field.q
        for _ in range(300):
            length = rng.randrange(1, code.r + 1)
            start = rng.randrange(0, code.n - length + 1)
            coeffs = [rng.randrange(1, q)] + [
                rng.randrange(q) for _ in range(length - 2)
            ]
            if length > 1:
                coeffs.append(rng.randrange(1, q))
            e = _burst(code.n, start, coeffs)
            s = vec_syndrome_poly(code, e)
            ehat = trap_decode(s, code)
            assert syndrome(code, ehat) == syndrome(code, e)


def test_low_order_bursts_read_off_in_syndrome():
    rng = random.Random(19)
    for code in (STEANE, CODE13):
        for _ in range(200):
            length = rng.randrange(1, code.r + 1)
            start = rng.randrange(0, code.r - length + 1)
            coeffs = [rng.randrange(1, code.field.q)] + [
                rng.randrange(code.field.q) for _ in range(length - 1)
            ]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            e = _burst(code.n, start, coeffs)
            assert syndrome(code, e) == e[: code.r]


def test_classify():
    # a decode is exact (ehat == e), degenerate, or a failure
    zero = (0,) * 5
    stab = tuple(GF4.conj(v) for v in QUAD5.H.data[0])
    assert degeneracy_check(QUAD5, zero, zero)
    assert stab != zero and degeneracy_check(QUAD5, stab, zero)
    # logical operator: codeword outside the Hermitian dual
    assert not degeneracy_check(QUAD5, (0, 0, 1, 2, 1), zero)
    with pytest.raises(ValueError):
        degeneracy_check(QUAD5, (1, 0, 0, 0, 0), zero)


def test_classify_css_mode():
    zero = (0,) * 7
    dual_row = STEANE.H.data[0]
    assert dual_row != zero and degeneracy_check(STEANE, dual_row, zero)


def test_census_size_formula():
    assert burst_count(5, 4, 2) == 51
    assert burst_count(7, 4, 3) == 255
    assert burst_count(13, 4, 6) == 25599
    assert burst_count(17, 4, 8) == 507903
    assert burst_count(23, 4, 11) == 41943039
    for q in (2, 4):
        for n in (1, 4, 7):
            for lmax in range(0, n + 3):
                patterns = list(_burst_patterns(q, lmax))
                assert len(set(patterns)) == len(patterns)
                placed = sum(max(n - len(p) + 1, 0) for p in patterns)
                assert placed == burst_count(n, q, lmax), (q, n, lmax)


def test_census_small_and_counts():
    stats = burst_census(QUAD5, "hermitian")
    assert (stats.total, stats.decoded, stats.exact) == (51, 15, 15)
    assert stats.lmax == 2
    assert stats.exact <= stats.decoded <= stats.total
    assert stats.exact_ratio == pytest.approx(15 / 51)
    assert stats.decoded_ratio == pytest.approx(15 / 51)
    assert stats.degeneracy_gain == pytest.approx(1.0)


def test_census_respects_lmax():
    stats = burst_census(QUAD5, "hermitian", lmax=1)
    assert stats.total == 15
    assert stats.exact == 15  # single errors decode exactly


def test_census_rejects_lmax_out_of_range():
    for lmax in (-1, 0, QUAD5.n + 1):
        with pytest.raises(ValueError, match="lmax"):
            burst_census(QUAD5, "hermitian", lmax=lmax)
    assert burst_census(QUAD5, "hermitian", lmax=QUAD5.n).total == burst_count(5, 4, 5)


def test_census_rejects_codes_without_quantum_construction():
    full = code_from_generator(5, parse_generator("(1^5 1^0)", GF4))  # [[5,-5]]
    with pytest.raises(NotDualContaining):
        burst_census(full, "hermitian", lmax=1)
    parity = code_from_generator(3, parse_generator("(1^1 1^0)", GF2))
    with pytest.raises(NotDualContaining):
        burst_census(parity, "css", lmax=1)
    trivial = code_from_generator(5, parse_generator("(1^0)", GF4))  # r = 0
    with pytest.raises(ValueError, match="degree"):
        burst_census(trivial, "hermitian", lmax=1)
    # an admissible [[21,9]] pair of two distinct codes: the census pairs one
    # binary code with itself, and (c, c) is that code alone
    css21 = [code_from_generator(21, parse_generator(text, GF2))
             for text in ("(1^6 1^4 1^1 1^0)", "(1^6 1^4 1^2 1^1 1^0)")]
    with pytest.raises(ValueError, match="pairs one binary code with itself"):
        burst_census(css21, "css", lmax=1)
    hamming = code_from_generator(7, parse_generator("(1^3 1^1 1^0)", GF2))  # [[7,1]]
    assert burst_census((hamming, hamming), "css") == burst_census(hamming, "css")


def _stabilizer_rows(dual_of):
    """Rows spanning over GF(2) the stabilizer judged against `dual_of`, as
    Pauli vectors (GF(4) digits, X = bit 0, Z = bit 1): conj(H) and its
    w-multiples for a GF(4) code, the rows of H taken as X (digit 1) and as
    Z (digit 2) for a binary one."""
    rows = dual_of.H.data
    if dual_of.field.m == 2:
        conj = [tuple(GF4.conj(v) for v in row) for row in rows]
        return conj + [tuple(GF4.mul(OMEGA, v) for v in row) for row in conj]
    return list(rows) + [tuple(2 * v for v in row) for row in rows]


def _span_oracle(rows):
    """Membership in the GF(2) span of the rows, with no polynomial
    division: a vector packed two bits per digit reduces to 0 against a
    basis of the packed rows with distinct leading bits."""

    def reduce(vec):
        v = sum(d << 2 * i for i, d in enumerate(vec))
        for b in basis:
            v = min(v, v ^ b)
        return v

    basis = []
    for row in rows:
        v = reduce(row)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return lambda vec: reduce(vec) == 0


def _combination(rng, rows, n):
    """The XOR of a random subset of the rows."""
    vec = [0] * n
    for row in rows:
        if rng.randrange(2):
            vec = [a ^ b for a, b in zip(vec, row)]
    return tuple(vec)


def _divisor_codes(n, field):
    return [code_from_generator(n, g) for g in divisor_generators(n, field)]


def test_stabilizer_generator_matches_span_oracle():
    # s = dual_of.stabilizer divides a vector exactly when the span oracle
    # admits it, for every divisor code of odd n <= 15 over GF(4) and
    # every ordered pair of them over GF(2): on Pauli vectors
    # against s read over GF(4), and on vectors over the code's own field,
    # which degeneracy_check judges the same way as differences of pairs
    rng = random.Random(43)
    verdicts = {True: 0, False: 0}
    for n in range(3, 16, 2):
        binary = _divisor_codes(n, GF2)
        cases = [(c, c) for c in _divisor_codes(n, GF4)]
        cases += [(c1, c2) for c1 in binary for c2 in binary]
        for code, dual_of in cases:
            s = dual_of.stabilizer
            s4 = Polynomial.make(GF4, s.coeffs)
            rows = _stabilizer_rows(dual_of)
            member = _span_oracle(rows)
            # the stabilizer rows over the code's field: over GF(2), the X rows
            field_rows = rows if code.field.m == 2 else dual_of.H.data
            word_rows = list(code.G.data)
            if code.field.m == 2:
                word_rows += [tuple(GF4.mul(OMEGA, v) for v in row) for row in word_rows]
            for _ in range(6):
                stab = _combination(rng, rows, n)
                pauli = tuple(rng.randrange(4) for _ in range(n))
                assert member(stab), (dual_of, stab)
                for vec in (stab, pauli):
                    assert (Polynomial.make(GF4, vec) % s4).is_zero == member(vec), (dual_of, vec)
                for vec in (_combination(rng, field_rows, n), _combination(rng, word_rows, n)):
                    verdict = member(vec)
                    assert (vector_poly(code, vec) % s).is_zero == verdict, (dual_of, vec)
                    if contains(code, vec):
                        f = tuple(rng.randrange(code.field.q) for _ in range(n))
                        e = tuple(a ^ b for a, b in zip(vec, f))
                        got = degeneracy_check(code, e, f, dual_of=dual_of)
                        assert got == verdict, (code, dual_of, vec)
                        verdicts[verdict] += 1
    assert min(verdicts.values()) > 1000, verdicts


def _css_limit_oracle(c1, c2):
    """L of the CSS pair by direct enumeration: each component confuses
    the bursts its own syndrome cannot tell apart, and confusing them is
    harmless iff their difference lies in the row space of the other
    component's H (the stabilizer judged against it)."""
    n = c1.n
    cap = min(c1.r, c2.r) // 2
    zero = (0,) * n
    best = cap + 1
    for code, partner in ((c1, c2), (c2, c1)):
        harmless = _span_oracle(partner.H.data)
        buckets = {syndrome(code, zero): [(zero, 0)]}
        for pattern in _burst_patterns(2, cap):
            for start in range(n - len(pattern) + 1):
                vec = zero[:start] + pattern + zero[start + len(pattern) :]
                buckets.setdefault(syndrome(code, vec), []).append((vec, len(pattern)))
        for bucket in buckets.values():
            for (v1, l1), (v2, l2) in combinations(bucket, 2):
                diff = tuple(a ^ b for a, b in zip(v1, v2))
                if any(diff) and not harmless(diff):
                    best = min(best, max(l1, l2))
    return min(best - 1, cap)


def test_css_pair_limits_match_span_oracle():
    # a pair judged against the wrong partner (each code against itself,
    # say) changes L here, first at n = 9; brute_force_limit cannot show
    # it, since it takes its sweeps from the same pairing as the limit
    checked = 0
    for n in range(3, 16, 2):
        codes = [c for c in _divisor_codes(n, GF2) if c.r >= 1]
        for c1 in codes:
            for c2 in codes:
                if c1.g == c2.g:
                    continue
                try:
                    rep = qcc_burst_limit((c1, c2), "css")
                except NotDualContaining:
                    continue
                assert rep.L == _css_limit_oracle(c1, c2), (c1, c2)
                # the delta floor: the exact report at delta_max = delta,
                # and none (no partial one) just below it
                K, sweeps = _components((c1, c2), "css")
                assert _sweep_report(K, sweeps, "css", rep.delta) == rep, (c1, c2)
                assert _sweep_report(K, sweeps, "css", rep.delta - 1) is None, (c1, c2)
                checked += 1
    assert checked > 100


def _packed_syndrome(tables, vec):
    acc = 0
    for pos, d in enumerate(vec):
        acc ^= tables[pos][d]
    return acc


def test_stabilizer_syndrome_is_dual_membership():
    # the census calls ehat - e degenerate iff its packed syndrome modulo the
    # stabilizer generator is 0; that must be membership in the stabilizer
    rng = random.Random(41)
    for field in (GF4, GF2):
        for n in range(3, 16, 2):
            for g in divisor_generators(n, field, (1, n - 1)):
                code = code_from_generator(n, g)
                s = Polynomial.make(GF4, code.stabilizer.coeffs)
                tables = _position_syndrome_tables(n, s)
                rows = _stabilizer_rows(code)
                member = _span_oracle(rows)
                for trial in range(20):
                    if trial % 2:
                        vec = tuple(rng.randrange(4) for _ in range(n))
                    else:
                        vec = _combination(rng, rows, n)
                    assert (_packed_syndrome(tables, vec) == 0) == member(vec), (code, vec)
                    assert member(vec) or trial % 2, (code, vec)


def _census_oracle(code, lmax):
    """(N, N0, ND) by decoding each burst with the polynomial decoder on the
    GF(4)-lifted code and judging ehat - e by the span oracle.  The decode
    is a function of the syndrome, so it is computed once per syndrome."""
    lifted = code_from_generator(code.n, Polynomial.make(GF4, code.g.coeffs))
    member = _span_oracle(_stabilizer_rows(code))
    decodes = {}
    total = exact = decoded = 0
    for pattern in _burst_patterns(4, lmax):
        for start in range(code.n - len(pattern) + 1):
            e = _burst(code.n, start, pattern)
            s = syndrome(lifted, e)
            if s not in decodes:
                decodes[s] = trap_decode(Polynomial.make(GF4, s), lifted)
            ehat = decodes[s]
            total += 1
            if ehat == e:
                exact += 1
                decoded += 1
            elif member(tuple(a ^ b for a, b in zip(ehat, e))):
                decoded += 1
    return total, exact, decoded


def test_census_matches_polynomial_oracle():
    checked = 0
    for field, construction in ((GF4, "hermitian"), (GF2, "css")):
        for n in (3, 5, 7, 9, 11, 13):
            for g in divisor_generators(n, field, (1, n - 1)):
                code = code_from_generator(n, g)
                try:
                    stats = burst_census(code, construction)
                except NotDualContaining:
                    continue
                got = (stats.total, stats.exact, stats.decoded)
                assert got == _census_oracle(code, stats.lmax), (code, construction)
                checked += 1
    assert checked == 8


def _x_order(code):
    """The least m >= 1 with x^m = 1 modulo g."""
    one = Polynomial.x_pow(code.field, 0)
    return next(m for m in range(1, code.n + 1) if Polynomial.x_pow(code.field, m) % code.g == one)


def test_orbit_census_matches_per_pattern_walk():
    # the orbit walk against the per-syndrome count that lengths above r
    # take, driven here one length at a time up to r: every dual-containing
    # code of both fields with odd n <= 21 and r <= 8, at every lmax 1..r
    # (the twelve r = 9 codes of n = 21 would add several seconds), and each
    # orbit's ties against those of its start.  A code whose x-order is
    # below n meets each pattern more than once per walk, and an orbit with
    # several ties counts its patterns' starts by interval
    short_order = multi_tie = False
    rows = 0
    for field, construction in ((GF4, "hermitian"), (GF2, "css")):
        for n in range(3, 22, 2):
            for built, _ in dual_containing_codes(n, field):
                _, ((code, dual_of),) = _components(built, construction)
                if code.r > 8:
                    continue
                decoder = _PackedDecoder(code, dual_of)
                per_syndrome = (0, 0, 0)
                for lmax in range(1, code.r + 1):
                    per_syndrome = tuple(map(add, per_syndrome, decoder.by_syndrome([lmax])))
                    orbits = list(decoder.orbits(lmax))
                    multi_tie |= any(len(ties) > 1 for ties, _ in orbits)
                    for ties, members in orbits:
                        # the first member is the walk's start, at shift 0
                        start = members[0][2] & (1 << 2 * n) - 1
                        assert decoder.ties(start) == ties, (code, construction, start)
                    assert decoder.tally(orbits) == per_syndrome, (code, construction, lmax)
                    rows += 1
                short_order |= _x_order(code) < n
    assert short_order and multi_tie
    assert rows == 300


def _unpack(word, n):
    """The n digits packed two bits each in the low bits of a word."""
    return tuple(word >> 2 * i & 3 for i in range(n))


def test_derived_ties_match_polynomial_walk():
    # the decoder reads each tie off a register of its walk that holds a
    # shortest trap's burst at its lowest stage; checked against the
    # polynomial decoder on the GF(4)-lifted code, and against every
    # register x^i S mod g with its top stage occupied and a trap of the
    # shortest length, for seeded random syndromes of every dual-containing
    # code of both fields with odd n <= 21
    rng = random.Random(53)
    x = Polynomial.x_pow(GF4, 1)
    short_order = multi_tie = False
    checked = 0
    for field, construction in ((GF4, "hermitian"), (GF2, "css")):
        for n in range(3, 22, 2):
            for built, _ in dual_containing_codes(n, field):
                _, ((code, dual_of),) = _components(built, construction)
                lifted = code_from_generator(n, Polynomial.make(GF4, code.g.coeffs))
                decoder = _PackedDecoder(code, dual_of)
                r = code.r
                for _ in range(20):
                    digits = [0] * r
                    while not any(digits):
                        digits = [rng.randrange(4) for _ in range(r)]
                    S = Polynomial.make(GF4, digits)
                    z, v = _trap_search(S, lifted)
                    ties = decoder.ties(sum(d << 2 * i for i, d in enumerate(digits)))
                    assert ties[0][0] == v, (code, digits)
                    assert _unpack(ties[0][1], n) == trap_decode(S, lifted), (code, digits)
                    # every tie, hence the trapped length z too
                    expected = []
                    reg = S
                    for i in range(n):
                        low = next(j for j, c in enumerate(reg.coeffs) if c)
                        if reg.coeff(r - 1) and r - low == z:
                            word = [0] * n
                            for j, c in enumerate(reg.coeffs):
                                word[(j - i) % n] = c
                            expected.append((i, tuple(word)))
                        reg = (reg * x) % lifted.g
                    assert [(k, _unpack(word, n)) for k, word in ties] == expected, (code, digits)
                    multi_tie |= len(ties) > 1
                    checked += 1
                short_order |= _x_order(code) < n
    assert short_order and multi_tie
    assert checked == 20 * 78


def test_long_pattern_census_matches_oracle():
    # lengths above r take the per-syndrome count: at lmax = r + 1 and
    # r + 2, on the first dual-containing code of each degree r <= 4 with
    # n in 5, 7, 15, 17, of both fields, where some syndromes have
    # several ties
    multi_tie = False
    checked = 0
    for field, construction in ((GF4, "hermitian"), (GF2, "css")):
        for n in (5, 7, 15, 17):
            degrees = set()
            for code, _ in dual_containing_codes(n, field):
                _, ((component, dual_of),) = _components(code, construction)
                r = component.r
                if r > 4 or r in degrees:
                    continue
                degrees.add(r)
                for lmax in (r + 1, r + 2):
                    stats = burst_census(code, construction, lmax=lmax)
                    got = (stats.total, stats.exact, stats.decoded)
                    assert got == _census_oracle(code, lmax), (code, construction, lmax)
                    checked += 1
                decoder = _PackedDecoder(component, dual_of)
                multi_tie |= any(len(decoder.ties(S)) > 1 for S in range(1, 1 << 2 * r))
    assert multi_tie
    assert checked == 14


def test_pattern_keys_match_per_pattern_keys():
    # lengths above r count weighted keys with the pattern's middle cut to
    # deg s digits; as a multiset they must be every pattern's own key, one
    # per pattern: every dual-containing code of both fields with odd
    # n <= 13, at every length 1..n up to deg s + 3 (every length for
    # n <= 9), where past deg s + 2 four middles stand behind each key
    cut = False
    checked = 0
    for field, construction in ((GF4, "hermitian"), (GF2, "css")):
        for n in range(3, 14, 2):
            for built, _ in dual_containing_codes(n, field):
                _, ((code, dual_of),) = _components(built, construction)
                decoder = _PackedDecoder(code, dual_of)
                table = decoder.table
                s_degree = dual_of.stabilizer.degree
                for length in range(1, min(n, s_degree + 3) + 1):
                    # every pattern with first digit 1 and last digit nonzero
                    rows = [table[0][1:2], *table[1 : length - 1], table[length - 1][1:]]
                    expected = Counter(word >> 2 * n for word in _xor_sums(rows[:length]))
                    got = Counter()
                    for key, weight in decoder.pattern_keys(length):
                        got[key] += weight
                        cut |= weight > 1
                    assert got == expected, (code, construction, length)
                    checked += 1
    assert cut
    assert checked == 58


def test_census_codeword_bursts_match_oracle():
    # at lmax = n some bursts are codewords: each decodes to 0 at every
    # start and is degenerate exactly when it is a stabilizer
    checked = 0
    for field, construction in ((GF4, "hermitian"), (GF2, "css")):
        for n in (3, 5, 7):
            for g in divisor_generators(n, field, (1, n - 1)):
                code = code_from_generator(n, g)
                try:
                    stats = burst_census(code, construction, lmax=n)
                except NotDualContaining:
                    continue
                got = (stats.total, stats.exact, stats.decoded)
                assert got == _census_oracle(code, n), (code, construction)
                checked += 1
    assert checked == 6
    stats = burst_census(QUAD5, "hermitian", lmax=5)
    assert (stats.decoded, stats.exact, stats.total) == (255, 15, 1023)
    stats = burst_census(STEANE, "css", lmax=7)
    assert (stats.decoded, stats.exact, stats.total) == (4095, 63, 16383)


@pytest.mark.parametrize(
    "n, field, construction, gen, expected",
    [
        (23, GF2, "css", "(1^11 1^9 1^7 1^6 1^5 1^1 1^0)", (209205, 208272, 212991)),
        (25, GF4, "hermitian", "(1^12 2^11 1^10 2^7 3^6 2^5 1^2 2^1 1^0)",
         (236664, 236190, 237567)),
    ],
)
def test_census_counts_at_r11_and_r12(n, field, construction, gen, expected):
    # beyond the oracle's reach; 100 and 26 of the 4096 patterns trap at two
    # tied shifts.  The counts are those of the per-burst census at lmax 7.
    stats = burst_census(code_from_generator(n, parse_generator(gen, field)), construction, lmax=7)
    assert (stats.decoded, stats.exact, stats.total) == expected


def test_census_guard():
    with pytest.raises(ValueError, match="guard"):
        burst_census(CODE13, "hermitian", guard=100)


def test_census_guard_bounds_the_decoder_tables():
    # the decoder's position tables take about 128 n^2 bytes whatever lmax
    # is: the Steane generator interleaved to depth 585, g(x^585), is a
    # CSS code of length 4095 with only 12,285 bursts of length 1, whose
    # tables would take about 2 GB; the census refuses it at once
    g = STEANE.g.bits
    spread = sum((g >> k & 1) << 585 * k for k in range(STEANE.r + 1))
    code = code_from_generator(4095, Polynomial(GF2, spread))
    assert burst_count(code.n, 4, 1) == 12_285
    start = time.perf_counter()
    with pytest.raises(ValueError, match="guard") as refused:
        burst_census(code, "css", lmax=1)
    assert time.perf_counter() - start < 1
    assert "\n" not in str(refused.value)


def test_census_field_checks():
    with pytest.raises(ValueError):
        burst_census(STEANE, "hermitian")
    with pytest.raises(ValueError):
        burst_census(QUAD5, "css")


def test_shift_covariance_within_unique_trap_range():
    # below the nondegenerate limit the trapped representative is unique,
    # so decoding commutes with cyclic shifts that keep the burst linear
    rng = random.Random(29)
    for code, ell0 in ((STEANE, 1), (QUAD5, 1), (CODE13, 3)):
        n = code.n
        for _ in range(300):
            length = rng.randrange(1, ell0 + 1)
            start = rng.randrange(0, n - length + 1)
            coeffs = [rng.randrange(1, code.field.q)]
            for _ in range(length - 2):
                coeffs.append(rng.randrange(code.field.q))
            if length > 1:
                coeffs.append(rng.randrange(1, code.field.q))
            e = list(_burst(n, start, coeffs))
            shift = rng.randrange(0, n - (start + length) + 1)
            shifted = tuple([0] * shift + e[:-shift] if shift else e)
            dec = trap_decode(vec_syndrome_poly(code, tuple(e)), code)
            dec_shifted = trap_decode(vec_syndrome_poly(code, shifted), code)
            expected = tuple([0] * shift + list(dec[: n - shift]) if shift else dec)
            assert dec_shifted == expected

"""Layer probes: time ``galois``, ``polyring`` and ``matgf`` alone, through
their public functions, on inputs captured from workload items.

Capture runs one small item of a workload with recording wrappers around
``FieldSpec.mul``, ``Polynomial.__divmod__`` and ``row_reduce``, keeping
each call's arguments and result.  A probe first replays every captured
call and checks it against the captured result, then times replays.
"""

from __future__ import annotations

import functools
import operator
import statistics
import sys
from time import perf_counter

CAPTURE_LIMIT = 20000
PROBE_SECONDS = 0.2
PROBE_ROUNDS = 3

# GF(2) lengths where factoring x^n - 1 raises KeyError at the commit
# that defined this benchmark; the count shows when that is fixed.
FACTOR_DEFECT_LENGTHS = (53, 59, 61)


def run_all(qb) -> dict:
    gf4_mul, windows = _capture_limits_row(qb)
    gf64_mul, mod63 = _capture_rs_item(qb)
    probes = {
        "galois.mul_per_s.gf4": (qb.GF4.mul, gf4_mul),
        "galois.mul_per_s.gf64": (qb.field_make(6).mul, gf64_mul),
        "polyring.mod_per_s.n63": (operator.mod, mod63),
        "matgf.rank_per_s": (qb.row_reduce, windows),
    }
    metrics = {}
    checked = mismatches = 0
    for name, (fn, calls) in probes.items():
        if not calls:
            raise RuntimeError(f"probe {name} captured no calls")
        checked += len(calls)
        mismatches += sum(fn(*args) != want for args, want in calls)
        metrics[name] = _rate(fn, [args for args, _want in calls])
    metrics["polyring.factor_errors"] = _factor_errors(qb)
    return {"metrics": metrics, "checked": checked, "mismatches": mismatches}


def _rate(fn, calls) -> float:
    """Median over rounds of replayed calls per second."""
    rates = []
    for _ in range(PROBE_ROUNDS):
        done = 0
        start = perf_counter()
        while True:
            for args in calls:
                fn(*args)
            done += len(calls)
            elapsed = perf_counter() - start
            if elapsed >= PROBE_SECONDS:
                break
        rates.append(done / elapsed)
    return statistics.median(rates)


def _factor_errors(qb) -> int:
    errors = 0
    for n in FACTOR_DEFECT_LENGTHS:
        try:
            qb.factor_xn_minus_1(n, qb.GF2)
        except Exception as exc:  # the count is the measurement
            errors += 1
            print(f"factor_xn_minus_1({n}, GF2): {type(exc).__name__}: {exc}", file=sys.stderr)
    return errors


class _Recorder:
    """Records ``(args, result)`` of calls to ``fn``, up to a limit."""

    def __init__(self, fn, keep):
        self.calls: list[tuple[tuple, object]] = []
        calls = self.calls

        @functools.wraps(fn)
        def recorded(*args):
            result = fn(*args)
            if len(calls) < CAPTURE_LIMIT and keep(*args):
                calls.append((args, result))
            return result

        self.wrapper = recorded


def _capture_limits_row(qb):
    """GF(4) products and window reductions of table 1's [[45,9]] row."""
    from qburst import qccburst

    mul = _Recorder(qb.FieldSpec.mul, keep=lambda field, a, b: field.q == 4)
    reduce_ = _Recorder(qccburst.row_reduce, keep=lambda m: True)
    original_mul, original_reduce = qb.FieldSpec.mul, qccburst.row_reduce
    qb.FieldSpec.mul, qccburst.row_reduce = mul.wrapper, reduce_.wrapper
    try:
        code = qb.code_from_generator(45, qb.parse_generator("(1^18 2^9 1^0)", qb.GF4))
        qb.qcc_burst_limit_hermitian(code)
    finally:
        qb.FieldSpec.mul, qccburst.row_reduce = original_mul, original_reduce
    return _unbound(mul.calls), reduce_.calls


def _capture_rs_item(qb):
    """GF(64) products and length-63 polynomial remainders of rs [[63,1]]."""
    mul = _Recorder(qb.FieldSpec.mul, keep=lambda field, a, b: field.q == 64)
    mod = _Recorder(
        qb.Polynomial.__divmod__,
        keep=lambda a, b: a.field.q == 64 and a.degree <= 62 and b.degree >= 1,
    )
    original_mul, original_divmod = qb.FieldSpec.mul, qb.Polynomial.__divmod__
    qb.FieldSpec.mul, qb.Polynomial.__divmod__ = mul.wrapper, mod.wrapper
    try:
        qb.rs_image_burst_limit(qb.rs_make(6, 1))
    finally:
        qb.FieldSpec.mul, qb.Polynomial.__divmod__ = original_mul, original_divmod
    return _unbound(mul.calls), [(args, result[1]) for args, result in mod.calls]


def _unbound(calls):
    """Drop the field argument of recorded ``FieldSpec.mul`` calls."""
    return [(args[1:], result) for args, result in calls]

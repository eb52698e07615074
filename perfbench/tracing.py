"""Tracing of qburst from outside the package.

``Tracer.install`` replaces every public function of each qburst module,
at every module-level binding of it (``row_reduce`` is bound in
``matgf``, ``cycliccode``, ``qccburst``, ``qrsburst`` and the package
itself), with a wrapper that records a span: id, parent span id, item
index, function name, binding site, start and end.  Spans stay in memory
until ``write_spans``.  ``FieldSpec.mul`` and ``Polynomial.__divmod__``
(which ``%`` and ``//`` go through) run millions of times, so they only
count calls; their time lands in the self time of the calling span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
from collections import defaultdict
from time import perf_counter

MODULES = (
    "galois", "polyring", "matgf", "cycliccode",
    "qccburst", "qrsburst", "qetd", "searchcli",
)

DUAL_TESTS = ("cycliccode.hermitian_dual_containing", "cycliccode.css_dual_containing")
MEMBERSHIP = (
    "cycliccode.in_euclidean_dual", "cycliccode.in_hermitian_dual", "cycliccode.syndrome",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (sid, parent, item, name, site, t0, t1)
        self.current = 0  # id of the open span; 0 at top level
        self.item = -1
        self.ids = itertools.count(1)
        self.true_results: dict[str, int] = defaultdict(int)
        self.totals: dict[str, int] = defaultdict(int)  # summed result sizes
        self.mul_calls = itertools.count()
        self.divmod_calls = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------------

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        namespaces = [package, *modules]
        for mod in modules:
            home = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        site = ns.__name__.rsplit(".", 1)[-1]
                        self._patch(ns, attr, self._wrap(f"{home}.{attr}", site, fn))
        matgf = importlib.import_module(f"{package.__name__}.matgf")
        self._patch(
            matgf.MatrixGF, "matmul",
            self._wrap("matgf.matmul", "matgf", matgf.MatrixGF.matmul),
        )
        self._patch(package.FieldSpec, "mul", _counted(package.FieldSpec.mul, self.mul_calls))
        self._patch(
            package.Polynomial, "__divmod__",
            _counted(package.Polynomial.__divmod__, self.divmod_calls),
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, site: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, site, fn)
        tracer = self
        spans = self.spans
        ids = self.ids
        hook = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            sid = next(ids)
            tracer.current = sid
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.current = parent
                spans.append((sid, parent, tracer.item, name, site, t0, t1))
            if hook is not None:
                hook(tracer, name, result)
            return result

        return traced

    def _wrap_generator(self, name: str, site: str, fn):
        """Each resumption of the generator is one span."""
        tracer = self
        spans = self.spans
        ids = self.ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                parent = tracer.current
                sid = next(ids)
                tracer.current = sid
                t0 = perf_counter()
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    tracer.current = parent
                    spans.append((sid, parent, tracer.item, name, site, t0, t1))
                yield value

        return traced

    # -- reading ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures that come from spans and counters.

        Reading a call counter advances it, so call this once, after the
        traced work.
        """
        name_of = {s[0]: s[3] for s in self.spans}
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        for _sid, _parent, _item, name, _site, t0, t1 in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
        own = self_times(self.spans)
        module_self: dict[str, float] = defaultdict(float)
        for name, seconds in own.items():
            module_self[name.split(".", 1)[0]] += seconds

        windows = deficient = rs_windows = combos = 0
        for _sid, parent, _item, name, site, _t0, _t1 in self.spans:
            if name == "matgf.row_reduce":
                if site == "qrsburst":
                    rs_windows += 1
                elif site == "qccburst" and name_of.get(parent) != "qccburst.dependency_pairs":
                    windows += 1
            elif name == "qccburst.dependency_pairs":
                deficient += 1
            elif name == "cycliccode.in_euclidean_dual" and site == "qrsburst":
                combos += 1

        dual_tests = sum(calls[n] for n in DUAL_TESTS)
        admitted = sum(self.true_results[n] for n in DUAL_TESTS)
        pairs = calls["qccburst.degeneracy_check"]
        return {
            "galois.mul_calls": next(self.mul_calls),
            "polyring.mod_calls": next(self.divmod_calls),
            "polyring.divisors_s": total["polyring.divisor_generators"],
            "matgf.row_reduce_calls": calls["matgf.row_reduce"],
            "matgf.row_reduce_s": total["matgf.row_reduce"],
            "matgf.matmul_calls": calls["matgf.matmul"],
            "matgf.matmul_s": total["matgf.matmul"],
            "cycliccode.dual_tests": dual_tests,
            "cycliccode.dual_test_s": sum(total[n] for n in DUAL_TESTS),
            "cycliccode.dual_admit_ratio": admitted / dual_tests if dual_tests else 0.0,
            "cycliccode.member_calls": sum(calls[n] for n in MEMBERSHIP),
            "cycliccode.member_s": sum(total[n] for n in MEMBERSHIP),
            "qccburst.windows": windows,
            "qccburst.deficient_windows": deficient,
            "qccburst.pairs": pairs,
            "qccburst.nondegenerate_pairs": pairs - self.true_results["qccburst.degeneracy_check"],
            "qccburst.self_s": module_self["qccburst"],
            "qrsburst.windows": rs_windows,
            "qrsburst.combos_checked": combos,
            "qrsburst.self_s": module_self["qrsburst"],
            "qetd.bursts": self.totals["qetd.burst_census"],
            "qetd.self_s": module_self["qetd"],
            "searchcli.parse_s": total["searchcli.parse_generator"],
            "searchcli.emit_s": total["searchcli.report_emit"],
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("sid\tparent\titem\tname\tsite\tt0\tt1\n")
            for sid, parent, item, name, site, t0, t1 in self.spans:
                out.write(f"{sid}\t{parent}\t{item}\t{name}\t{site}\t{t0:.9f}\t{t1:.9f}\n")


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus its children's.

    Spans nest and never overlap their siblings (one thread, synchronous
    calls), so the part of a span its children cover is the sum of their
    durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for _sid, parent, _item, _name, _site, t0, t1 in spans:
        if parent:
            covered[parent] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, _item, name, _site, t0, t1 in spans:
        out[name] += (t1 - t0) - covered.get(sid, 0.0)
    return dict(out)


def _counted(fn, counter):
    @functools.wraps(fn)
    def counted(*args, _next=next, _counter=counter, _fn=fn):
        _next(_counter)
        return _fn(*args)

    return counted


def _count_true(tracer: Tracer, name: str, result) -> None:
    if result:
        tracer.true_results[name] += 1


def _count_bursts(tracer: Tracer, name: str, result) -> None:
    tracer.totals[name] += result.total


_RESULT_HOOKS = {
    "cycliccode.hermitian_dual_containing": _count_true,
    "cycliccode.css_dual_containing": _count_true,
    "qccburst.degeneracy_check": _count_true,
    "qetd.burst_census": _count_bursts,
}

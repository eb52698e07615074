"""Workload definitions: item pools, per-pass selection, item runners and
the reference check.

Every item runs through the public API of ``qburst`` and yields one
outcome string.  The pools and their expected outcomes live in
``reference.json`` next to this file, so a workload stays the same when
the package's own fixture tables change.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("limits", "search", "rs", "census")

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# rs: the m=6 rows with two base pairs per window take 1.3-2.1 s each, the
# other rows at most 0.2 s.  One pass keeps every other row and a third of
# the two-pair rows: the seed picks which third, and the thirds differ in
# cost by under 2%.
RS_HEAVY_STRIDE = 3


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def pass_items(workload: str, seed: int, reference: dict) -> list[dict]:
    """The items of one pass, in the order the seed gives."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    items = list(reference[workload])
    if workload == "rs":
        heavy = [it for it in items if it["m"] == 6 and it["pairs"] == 2]
        keep = rng.randrange(RS_HEAVY_STRIDE)
        dropped = {it["id"] for i, it in enumerate(heavy) if i % RS_HEAVY_STRIDE != keep}
        items = [it for it in items if it["id"] not in dropped]
    rng.shuffle(items)
    return items


def classify(item: dict, outcome: str) -> str:
    """ok / expected / MISMATCH, as ``verify-tables`` labels a row.

    The outcome must equal the recorded one.  A table row whose recorded
    outcome differs from the printed value carries an
    ``expected-discrepancy`` flag, and reaching that outcome is "expected".
    """
    if outcome != item["expect"]:
        return "MISMATCH"
    printed = item.get("printed")
    if printed is None or printed == outcome:
        return "ok"
    return "expected"


def error_outcome(exc: BaseException) -> str:
    return f"error: {type(exc).__name__}: {exc}"


def prepare(qb, workload: str, items: list[dict]):
    """Build the inputs of a pass and return the function that runs one item.

    Census codes are built here, so a census item is one ``burst_census``
    call; the other workloads build everything inside the item.
    """
    if workload == "limits":
        return lambda item: _run_limits(qb, item)
    if workload == "search":
        return lambda item: _run_search(qb, item)
    if workload == "rs":
        return lambda item: _run_rs(qb, item)
    codes = {}
    for item in items:
        field = qb.GF4 if item["construction"] == "hermitian" else qb.GF2
        codes[item["id"]] = qb.code_from_generator(
            item["n"], qb.parse_generator(item["gen"], field)
        )
    return lambda item: _run_census(qb, item, codes[item["id"]])


def _run_limits(qb, item: dict) -> str:
    hermitian = item["construction"] == "hermitian"
    field = qb.GF4 if hermitian else qb.GF2
    polys = [qb.parse_generator(g, field) for g in item["gens"]]
    codes = [qb.code_from_generator(item["n"], p) for p in polys]
    if hermitian:
        rep = qb.qcc_burst_limit_hermitian(codes[0])
    else:
        rep = qb.qcc_burst_limit_css(*codes)
    second = f"ell0={rep.ell0}" if item["table"] == 2 else f"delta={rep.delta}"
    return f"L={rep.L},{second},K={rep.K}"


def _run_search(qb, item: dict) -> str:
    reports = qb.search(qb.SearchJob(item["n"], item["n"], item["field"], 2))
    payload = qb.report_emit(reports)
    return f"sha256:{hashlib.sha256(payload).hexdigest()}"


def _run_rs(qb, item: dict) -> str:
    rep = qb.rs_image_burst_limit(qb.rs_make(item["m"], item["K"]))
    return f"L={rep.L},lower={rep.lower},qrb={rep.qrb_image}"


def _run_census(qb, item: dict, code) -> str:
    stats = qb.burst_census(code, item["construction"], lmax=item["lmax"])
    return f"ND={stats.decoded},N0={stats.exact},N={stats.total}"

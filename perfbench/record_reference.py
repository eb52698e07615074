"""Record the benchmark's item pools and expected outcomes.

Reads the fixture tables of ``src/qburst``, runs every item of every pool
once and writes ``reference.json``.  A table row must reproduce its
printed value unless it carries an ``expected-discrepancy`` flag; the
search hashes and the truncated censuses have no printed value and are
taken as the program computes them.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import qburst as qb
from qburst import qrsburst

import workloads

FIXTURES = Path("src/qburst/fixtures")

SEARCH_LENGTHS = {"gf4": range(3, 44, 2), "gf2": range(3, 62, 2)}
# GF(2) lengths whose factorization of x^n - 1 raises KeyError; they are
# measured as a defect count by the traced run, not timed here.
SEARCH_BROKEN = {("gf2", 53), ("gf2", 59), ("gf2", 61)}

# Truncated censuses: one CSS code and one Hermitian code that takes the
# per-position syndrome-table path (q^r > 2^20).
CENSUS_TRUNCATED = [
    ("css", 23, "(1^11 1^9 1^7 1^6 1^5 1^1 1^0)", 7),
    ("hermitian", 25, "(1^12 2^11 1^10 2^7 3^6 2^5 1^2 2^1 1^0)", 7),
]


def read_rows(name: str) -> list[tuple[list[str], list[str]]]:
    rows = []
    for raw in (FIXTURES / name).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        flags = [] if fields[-1] in ("", "-") else fields[-1].split(";")
        rows.append((fields, flags))
    return rows


def parse_nk(text: str) -> tuple[int, int]:
    n, k = text.strip("[]").split(",")
    return int(n), int(k)


def pools() -> dict[str, list[dict]]:
    limits = []
    for table, name in ((1, "table1.tsv"), (2, "table2.tsv")):
        for fields, flags in read_rows(name):
            if table == 1:
                construction, nk, L, delta, gens, _ = fields
                second = f"delta={delta}"
            else:
                construction, nk, L, ell0, _delta, gens, _ = fields
                second = f"ell0={ell0}"
            n, K = parse_nk(nk)
            limits.append({
                "id": f"table{table} {nk}", "table": table,
                "construction": construction, "n": n, "gens": gens.split(";"),
                "printed": f"L={L},{second},K={K}", "flags": flags,
            })
    search = [
        {"id": f"{field} n={n}", "field": field, "n": n, "printed": None, "flags": []}
        for field, lengths in SEARCH_LENGTHS.items()
        for n in lengths
        if (field, n) not in SEARCH_BROKEN
    ]
    rs = []
    for fields, flags in read_rows("table3.tsv"):
        m, n, K, L, lower, qrb, _ = fields
        code = qb.rs_make(int(m), int(K))
        pairs = len(qrsburst._window_base_pairs(code, 0)[1])
        rs.append({
            "id": f"table3 [[{n},{K}]]_2^{m}", "m": int(m), "K": int(K),
            "pairs": pairs, "printed": f"L={L},lower={lower},qrb={qrb}",
            "flags": flags,
        })
    census = []
    for fields, flags in read_rows("table4.tsv"):
        construction, nk, nd, n0, ntot, gen, _ = fields
        if "slow" in flags:
            continue
        census.append({
            "id": f"table4 {nk}", "construction": construction,
            "n": parse_nk(nk)[0], "gen": gen, "lmax": None,
            "printed": f"ND={nd},N0={n0},N={ntot}", "flags": flags,
        })
    for construction, n, gen, lmax in CENSUS_TRUNCATED:
        census.append({
            "id": f"census n={n} lmax={lmax}", "construction": construction,
            "n": n, "gen": gen, "lmax": lmax, "printed": None, "flags": [],
        })
    return {"limits": limits, "search": search, "rs": rs, "census": census}


def main() -> int:
    reference = pools()
    for workload in workloads.WORKLOADS:
        items = reference[workload]
        run = workloads.prepare(qb, workload, items)
        for item in items:
            try:
                outcome = run(item)
            except ValueError as exc:
                outcome = workloads.error_outcome(exc)
            flagged = any(f.startswith("expected-discrepancy") for f in item["flags"])
            if item["printed"] not in (None, outcome) and not flagged:
                print(f"MISMATCH {item['id']}: {item['printed']} -> {outcome}", file=sys.stderr)
                return 1
            item["expect"] = outcome
            if workload == "census":
                item["units"] = int(outcome.rsplit("N=", 1)[1])
            print(f"{workload:7s} {item['id']}: {outcome}", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

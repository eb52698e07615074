"""Code search driver, generator-polynomial notation, serialization, CLI.

Generator polynomials are written in the compact table notation
"(1^6 2^3 1^0)": each term is coefficient^exponent with coefficients
1..3 encoding 1, w, w^2 of GF(4) (only 1 is legal over GF(2)), exponents
strictly decreasing and ending at 0.

The search enumerates every divisor of x^n - 1 as a candidate generator,
keeps the dual-containing ones, computes burst limits, and emits reports
sorted canonically so output bytes do not depend on worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import resources
from math import gcd
from pathlib import Path

from .cycliccode import code_from_generator
from .galois import GF2, GF4, FieldSpec
from .polyring import Polynomial, divisor_generators
from .qccburst import NotDualContaining, QccReport, qcc_burst_limit
from .qetd import QetdStats, burst_census
from .qrsburst import rs_image_burst_limit, rs_make

FIELDS = {"gf2": GF2, "gf4": GF4}
# The quantum construction over each field: Hermitian over GF(4), CSS over GF(2).
CONSTRUCTIONS = {"gf4": "hermitian", "gf2": "css"}

# ---------------------------------------------------------------------------
# Notation codec
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"([123])\^(\d+)")
_SHAPE_RE = re.compile(r"^\(\s*(?:[123]\^\d+\s*)+\)$")


def parse_generator(text: str, field: FieldSpec) -> Polynomial:
    """Parse table notation into a polynomial over the given field."""
    cleaned = text.strip().lower()
    if not _SHAPE_RE.match(cleaned):
        raise ValueError(f"malformed generator notation: {text!r}")
    terms = [(int(c), int(e)) for c, e in _TERM_RE.findall(cleaned)]
    exponents = [e for _, e in terms]
    if exponents != sorted(exponents, reverse=True) or len(set(exponents)) != len(exponents):
        raise ValueError(f"exponents must be strictly decreasing: {text!r}")
    if exponents[-1] != 0:
        raise ValueError(f"final exponent must be 0: {text!r}")
    coeffs = [0] * (exponents[0] + 1)
    for c, e in terms:
        if c >= field.q:
            raise ValueError(f"coefficient {c} invalid over GF({field.q})")
        coeffs[e] = c
    return Polynomial.make(field, coeffs)


def emit_generator(p: Polynomial | tuple[int, ...]) -> str:
    """Inverse of parse_generator (round-trips exactly)."""
    coeffs = p.coeffs if isinstance(p, Polynomial) else tuple(p)
    terms = [
        f"{c}^{e}" for e, c in sorted(enumerate(coeffs), reverse=True) if c
    ]
    if not terms:
        raise ValueError("cannot emit the zero polynomial")
    return "(" + " ".join(terms) + ")"


def _codes(n: int, gens, construction: str):
    """The cyclic codes of length n with the given generator texts, over
    the field whose construction is `construction`."""
    field = next((FIELDS[f] for f, c in CONSTRUCTIONS.items() if c == construction), None)
    if field is None:
        raise ValueError(f"unknown construction {construction!r}")
    return tuple(code_from_generator(n, parse_generator(g, field)) for g in gens)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchJob:
    n_min: int
    n_max: int
    field: str  # "gf2" | "gf4"
    delta_max: int | None = None
    jobs: int = 1

    def lengths(self) -> list[int]:
        q = FIELDS[self.field].q
        return [
            n
            for n in range(max(self.n_min, 2), self.n_max + 1)
            if n % 2 == 1 and gcd(n, q) == 1
        ]


def _search_one_length(args: tuple[int, str, int | None]) -> list[QccReport]:
    n, field_name, delta_max = args
    field = FIELDS[field_name]
    reports = []
    for g in divisor_generators(n, field, (1, n - 1)):
        try:
            report = qcc_burst_limit(code_from_generator(n, g), CONSTRUCTIONS[field_name])
        except NotDualContaining:
            continue
        if delta_max is None or report.delta <= delta_max:
            reports.append(report)
    return reports


def _report_sort_key(r: QccReport):
    return (r.n, r.K, r.construction, tuple(emit_generator(g) for g in r.generators))


def search(job: SearchJob) -> list[QccReport]:
    """All dual-containing cyclic codes in range with delta <= delta_max,
    deterministically sorted regardless of parallelism."""
    tasks = [(n, job.field, job.delta_max) for n in job.lengths()]
    if job.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=job.jobs) as pool:
            chunks = list(pool.map(_search_one_length, tasks))
    else:
        chunks = [_search_one_length(t) for t in tasks]
    reports = [r for chunk in chunks for r in chunk]
    reports.sort(key=_report_sort_key)
    return reports


def report_as_dict(r: QccReport) -> dict:
    return {
        "n": r.n,
        "K": r.K,
        "L": r.L,
        "ell0": r.ell0,
        "delta": r.delta,
        "construction": r.construction,
        "generators": [emit_generator(g) for g in r.generators],
        "flags": list(r.flags),
    }


def report_emit(reports, fmt: str = "json") -> bytes:
    """Byte-stable serialization of a report stream."""
    reports = sorted(reports, key=_report_sort_key)
    if fmt == "json":
        payload = json.dumps(
            [report_as_dict(r) for r in reports], sort_keys=True, indent=1
        )
        return (payload + "\n").encode()
    if fmt == "csv":
        lines = ["delta,code,L,generators"]
        for r in reports:
            gens = ";".join(emit_generator(g) for g in r.generators)
            lines.append(f'{r.delta},"[[{r.n},{r.K}]]",{r.L},"{gens}"')
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Table fixtures and verification
# ---------------------------------------------------------------------------


def fixtures_dir() -> Path:
    return Path(str(resources.files("qburst").joinpath("fixtures")))


def _read_fixture(path: Path) -> list[dict]:
    rows = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        last = fields[-1].strip()
        flags = [] if last in ("", "-") else last.split(";")
        rows.append({"fields": fields, "flags": flags})
    return rows


def _parse_nk(text: str) -> tuple[int, int]:
    m = re.match(r"^\[\[(\d+),(\d+)\]\]$", text.strip())
    if not m:
        raise ValueError(f"bad code parameters: {text!r}")
    return int(m.group(1)), int(m.group(2))


def _limit_values(row: dict) -> dict:
    codes = _codes(row["n"], row["gens"].split(";"), row["construction"])
    rep = qcc_burst_limit(codes, row["construction"])
    return {"L": rep.L, "delta": rep.delta, "ell0": rep.ell0, "K": rep.K}


def _rs_values(row: dict) -> dict:
    rep = rs_image_burst_limit(rs_make(int(row["m"]), int(row["K"])))
    return {"L": rep.L, "lower": rep.lower, "qrb": rep.qrb_image}


def _census_values(row: dict) -> dict:
    (code,) = _codes(row["n"], [row["gen"]], row["construction"])
    stats = burst_census(code, row["construction"])
    return {"ND": stats.decoded, "N0": stats.exact, "N": stats.total}


# One entry per fixture table: file, column names (the last column holds
# the flags), row name, the template that renders both the printed and the
# computed values, and the function computing the values for one row.
# Tables with an `nk` column ([[n,K]]) also give the row `n` and `K`; a
# cell that does not parse is that row's error, and its K prints as `?`.
_TABLES = (
    ("table1.tsv", "construction nk L delta gens flags", "table1 {nk}",
     "L={L},delta={delta},K={K}", _limit_values),
    ("table2.tsv", "construction nk L ell0 delta gens flags", "table2 {nk}",
     "L={L},ell0={ell0},K={K}", _limit_values),
    ("table3.tsv", "m n K L lower qrb flags", "table3 [[{n},{K}]]_2^{m}",
     "L={L},lower={lower},qrb={qrb}", _rs_values),
    ("table4.tsv", "construction nk ND N0 N gen flags", "table4 {nk}",
     "ND={ND},N0={N0},N={N}", _census_values),
)


def verify_tables(directory: Path | None = None, include_slow: bool = False):
    """Recompute every fixture row; returns (lines, discrepancy_count).

    Rows flagged `slow` are skipped unless requested; rows flagged
    `expected-discrepancy` may mismatch (or fail to compute) without
    counting against the exit status.  Raises ValueError when the
    directory holds none of the table files.
    """
    directory = Path(directory) if directory is not None else fixtures_dir()
    if not any((directory / file_name).exists() for file_name, *_ in _TABLES):
        raise ValueError(f"no fixture tables in {directory}")
    lines: list[str] = []
    unexpected = 0
    for file_name, columns, label, template, compute in _TABLES:
        path = directory / file_name
        if not path.exists():
            continue
        columns = columns.split()
        for fixture_row in _read_fixture(path):
            fields, flags = fixture_row["fields"], fixture_row["flags"]
            if len(fields) != len(columns):
                raise ValueError(
                    f"{file_name}: expected {len(columns)} tab-separated fields, got {len(fields)}"
                )
            row = dict(zip(columns, fields))
            name = label.format(**row)
            if "slow" in flags and not include_slow:
                lines.append(f"skip      {name} (slow)")
                continue
            try:
                if "nk" in row:
                    row["n"], row["K"] = _parse_nk(row["nk"])
                computed = template.format(**compute(row))
            except (ValueError, NotDualContaining) as exc:
                computed = f"error: {exc}"
            printed = template.format(**{"K": "?", **row})
            if printed == computed:
                lines.append(f"ok        {name}: {computed}")
            elif any(f.startswith("expected-discrepancy") for f in flags):
                lines.append(f"expected  {name}: printed {printed} -> computed {computed}")
            else:
                lines.append(f"MISMATCH  {name}: printed {printed} -> computed {computed}")
                unexpected += 1
    return lines, unexpected


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _cmd_burst_limit(args) -> int:
    construction = CONSTRUCTIONS[args.field]
    gens = [args.gen, args.gen2] if args.gen2 else [args.gen]
    report = qcc_burst_limit(_codes(args.n, gens, construction), construction)
    print(json.dumps(report_as_dict(report), sort_keys=True))
    return 0


def _cmd_rs_limit(args) -> int:
    rep = rs_image_burst_limit(rs_make(args.m, args.kq))
    print(
        json.dumps(
            {
                "m": rep.m,
                "n": rep.n,
                "K": rep.K,
                "L": rep.L,
                "lower_bound": rep.lower,
                "qrb_image": rep.qrb_image,
                "flags": list(rep.flags),
            },
            sort_keys=True,
        )
    )
    return 0


def _stats_row(stats: QetdStats, gen_text: str) -> str:
    return "\t".join(
        [
            f"[[{stats.n},{stats.K}]]",
            str(stats.decoded),
            str(stats.exact),
            str(stats.total),
            f"{stats.decoded_ratio:.4f}",
            f"{stats.exact_ratio:.4f}",
            f"{stats.degeneracy_gain:.4f}",
            gen_text,
        ]
    )


def _cmd_qetd_sim(args) -> int:
    construction = CONSTRUCTIONS[args.field]
    (code,) = _codes(args.n, [args.gen], construction)
    stats = burst_census(code, construction, lmax=args.lmax)
    print(_stats_row(stats, args.gen))
    return 0


def _cmd_search(args) -> int:
    jobs = args.jobs if args.jobs is not None else int(os.environ.get("QBURST_JOBS", "1"))
    job = SearchJob(args.n_min, args.n_max, args.field, args.delta_max, jobs)
    payload = report_emit(search(job), args.format)
    if args.out is None or args.out == "-":
        sys.stdout.buffer.write(payload)
    else:
        Path(args.out).write_bytes(payload)
    return 0


def _cmd_verify_tables(args) -> int:
    lines, unexpected = verify_tables(args.fixtures, include_slow=args.include_slow)
    for line in lines:
        print(line)
    if unexpected:
        print(f"{unexpected} unexpected discrepancies")
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qburst",
        description="Burst error correction limits and decoding of quantum cyclic codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("burst-limit", help="limits of one cyclic code")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", choices=sorted(FIELDS), required=True)
    p.add_argument("--gen", required=True)
    p.add_argument("--gen2", default=None, help="second CSS generator")
    p.set_defaults(func=_cmd_burst_limit)

    p = sub.add_parser("rs-limit", help="true image burst limit of a quantum RS code")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kq", type=int, required=True, help="quantum dimension K")
    p.set_defaults(func=_cmd_rs_limit)

    p = sub.add_parser("qetd-sim", help="exhaustive decoder census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", choices=sorted(FIELDS), required=True)
    p.add_argument("--gen", required=True)
    p.add_argument("--lmax", type=int, default=None)
    p.set_defaults(func=_cmd_qetd_sim)

    p = sub.add_parser("search", help="sweep lengths for dual-containing codes")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--field", choices=sorted(FIELDS), required=True)
    p.add_argument("--delta-max", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify-tables", help="recompute the bundled table fixtures")
    p.add_argument("--fixtures", type=Path, default=None)
    p.add_argument("--include-slow", action="store_true")
    p.set_defaults(func=_cmd_verify_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NotDualContaining) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

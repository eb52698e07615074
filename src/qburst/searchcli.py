"""Code search driver, generator-polynomial notation, serialization, CLI.

Generator polynomials are written in the compact table notation
"(1^6 2^3 1^0)": each term is coefficient^exponent with coefficients
1..3 encoding 1, w, w^2 of GF(4) (only 1 is legal over GF(2)), exponents
strictly decreasing and ending at 0.

The search takes each length's dual-containing codes, with their orbit
keys, from `cycliccode.dual_containing_codes`, checks each code's
construction, and emits reports sorted canonically.  The burst-limit sweep
runs once per orbit of the group that reversing positions, conjugating
digits and, over GF(4) with 3 | n, the twist x -> wx generate (the key:
the least of a code's factor mask and its up to 11 images): each map
keeps burst lengths and commutes with the partner map conj o rev that
fixes the stabilizer, so every member shares K and the limits of the
first, and its report is built from those and its own generator.
With `--delta-max` a sweep stops as soon as its L has fallen below what
that delta needs; the partial report of such an orbit fails the delta
filter, so neither it nor any member is emitted (`search`).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .cycliccode import MAX_LENGTH, code_from_generator, dual_containing_codes
from .galois import GF2, GF4, FieldSpec
from .polyring import Polynomial
from .qccburst import QccReport, _components, _sweep_report, _table_notation, qcc_burst_limit
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


def _parse_terms(text: str, field: FieldSpec) -> list[tuple[int, int]]:
    """The (coefficient, exponent) terms of table notation, highest
    exponent first, checked against the grammar and the field."""
    cleaned = text.strip().lower()
    if not _SHAPE_RE.match(cleaned):
        raise ValueError(f"malformed generator notation: {text!r}")
    terms = [(int(c), int(e)) for c, e in _TERM_RE.findall(cleaned)]
    exponents = [e for _, e in terms]
    if exponents != sorted(exponents, reverse=True) or len(set(exponents)) != len(exponents):
        raise ValueError(f"exponents must be strictly decreasing: {text!r}")
    if exponents[-1] != 0:
        raise ValueError(f"final exponent must be 0: {text!r}")
    for c, _ in terms:
        if c >= field.q:
            raise ValueError(f"coefficient {c} invalid over GF({field.q})")
    return terms


def parse_generator(text: str, field: FieldSpec) -> Polynomial:
    """Parse table notation into a polynomial over the given field."""
    return Polynomial(field, sum(c << e * field.m for c, e in _parse_terms(text, field)))


def emit_generator(p: Polynomial) -> str:
    """Inverse of parse_generator (round-trips exactly)."""
    return _table_notation(p)


def _codes(n: int, gens, construction: str):
    """The cyclic codes of length n with the given generator texts, over
    the field whose construction is `construction`.  A generator of degree
    above n is rejected before its coefficients are laid out."""
    field = next((FIELDS[f] for f, c in CONSTRUCTIONS.items() if c == construction), None)
    if field is None:
        raise ValueError(f"unknown construction {construction!r}")
    codes = []
    for text in gens:
        degree = _parse_terms(text, field)[0][1]
        if degree > n:
            raise ValueError(f"generator degree {degree} exceeds n={n}: {text!r}")
        codes.append(code_from_generator(n, parse_generator(text, field)))
    return tuple(codes)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchJob:
    n_min: int
    n_max: int
    field: str  # "gf2" | "gf4"
    delta_max: int | None = None

    def __post_init__(self):
        if self.field not in FIELDS:
            raise ValueError(f"unknown field {self.field!r}; expected gf2 or gf4")

    def lengths(self) -> list[int]:
        if self.n_min < 1:
            raise ValueError(f"lengths run 1..{MAX_LENGTH}, got n-min={self.n_min}")
        if self.n_max > MAX_LENGTH:
            raise ValueError(f"lengths run 1..{MAX_LENGTH}, got n-max={self.n_max}")
        # q is 2 or 4, so the lengths coprime to q are the odd ones
        return [n for n in range(max(self.n_min, 2), self.n_max + 1) if n % 2 == 1]


def _report_sort_key(r: QccReport):
    return (r.n, r.K, r.construction, r.notation)


def search(job: SearchJob) -> list[QccReport]:
    """All dual-containing cyclic codes in range with delta <= delta_max,
    sorted canonically.  Every code is built and passes the construction
    check; the first member of each orbit is swept, and the others take
    its report with their own generator.

    delta = n - K - 4L <= delta_max holds iff L >= floor =
    ceil((n - K - delta_max) / 4), so the sweep stops at the first
    nondegenerate shift whose d(T) is below the floor, and runs no shift
    when the floor is above the Reiger cap r // 2 (every odd r at
    delta_max 0).  The report of such an orbit is partial, but its L is
    below the floor, hence its delta above delta_max: the filter below
    drops it, and the other members of a dropped orbit are checked but
    get no report.  Without delta_max the floor is 0 and every report is
    exact."""
    field, construction = FIELDS[job.field], CONSTRUCTIONS[job.field]
    reports = []
    for n in job.lengths():
        orbits: dict[int, QccReport | None] = {}  # None: the orbit fails the filter
        for code, key in dual_containing_codes(n, field):
            K, sweeps = _components(code, construction)
            if key in orbits:
                first = orbits[key]
                if first is not None:
                    reports.append(QccReport(n, K, first.L, first.ell0, construction,
                                             (code.g,), first.flags))
                continue
            floor = 0 if job.delta_max is None else -(-(n - K - job.delta_max) // 4)
            report = _sweep_report(K, sweeps, construction, floor)
            passed = job.delta_max is None or report.delta <= job.delta_max
            orbits[key] = report if passed else None
            if passed:
                reports.append(report)
    return sorted(reports, key=_report_sort_key)


def report_as_dict(r: QccReport) -> dict:
    return {
        "n": r.n,
        "K": r.K,
        "L": r.L,
        "ell0": r.ell0,
        "delta": r.delta,
        "construction": r.construction,
        "generators": list(r.notation),
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
            gens = ";".join(r.notation)
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
            except ValueError as exc:
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
    gens = [args.gen] if args.gen2 is None else [args.gen, args.gen2]
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
    job = SearchJob(args.n_min, args.n_max, args.field, args.delta_max)
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


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so `main` reports them as one
    `error:` line and exit 1; subparsers are built from this class too."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify-tables", help="recompute the bundled table fixtures")
    p.add_argument("--fixtures", type=Path, default=None)
    p.add_argument("--include-slow", action="store_true")
    p.set_defaults(func=_cmd_verify_tables)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Generator notation, code search, one computation per question, CLI.

The module reads top down: the notation codec; the search and its
serialization; one computation per question, `_limits` (L and ell0 of a
quantum cyclic code), `_rs` (the true limit of a quantum RS code's binary
image) and `_census` (the decoder census), whose values the CLI commands
print and `verify-tables` renders next to each printed fixture row; the
table fixtures; the CLI.

Generator polynomials are written in the compact table notation
"(1^6 2^3 1^0)": each term is coefficient^exponent with coefficients
1..3 encoding 1, w, w^2 of GF(4) (only 1 is legal over GF(2)), exponents
strictly decreasing, ending at 0, and at most MAX_LENGTH.  Both directions
of the codec live here: `qccburst` computes and writes no text.

The search takes each length's dual-containing codes, with their orbit
keys, from `cycliccode.dual_containing_codes`, checks each code's
construction, and emits reports in one canonical order, that of their
emitted rows (`_canonical`).  The burst-limit sweep
runs once per orbit of the group that reversing positions, conjugating
digits and, over GF(4) with 3 | n, the twist x -> wx generate (the key:
the least of a code's factor mask and its up to 11 images): each map
keeps burst lengths and commutes with the partner map conj o rev that
fixes the stabilizer, so every member shares K and the limits of the
first, and its report is the first one's with its own generator.
With `--delta-max` a sweep stops as soon as its L has fallen below what
that delta needs, and that orbit gets no report: nothing is partial.
"""

from __future__ import annotations

import json
import re
import sys
from operator import itemgetter
from pathlib import Path

from .cycliccode import MAX_LENGTH, code_from_generator, dual_containing_codes
from .galois import GF2, GF4, FieldSpec
from .polyring import Polynomial
from .qccburst import QccReport, _components, _sweep_report, qcc_burst_limit
from .qetd import QetdStats, burst_census
from .qrsburst import rs_image_burst_limit, rs_make

FIELDS = {"gf2": GF2, "gf4": GF4}
# The quantum construction over each field: Hermitian over GF(4), CSS over GF(2).
CONSTRUCTIONS = {"gf4": "hermitian", "gf2": "css"}

# ---------------------------------------------------------------------------
# Notation codec
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"([123])\^0*(\d+)")
_SHAPE_RE = re.compile(r"^\(\s*(?:[123]\^\d+\s*)+\)$")


def parse_generator(text: str, field: FieldSpec) -> Polynomial:
    """Parse table notation into a polynomial over the given field.  An
    exponent above MAX_LENGTH (no code is longer) is rejected before any
    coefficient is laid out."""
    cleaned = text.strip().lower()
    if not _SHAPE_RE.match(cleaned):
        raise ValueError(f"malformed generator notation: {text!r}")
    # the term pattern drops leading zeros, so a longer digit string is above the bound
    found = _TERM_RE.findall(cleaned)
    if any(len(e) > len(str(MAX_LENGTH)) or int(e) > MAX_LENGTH for _, e in found):
        raise ValueError(f"generator degree above {MAX_LENGTH}, the longest code length: {text!r}")
    terms = [(int(c), int(e)) for c, e in found]
    exponents = [e for _, e in terms]
    if exponents != sorted(exponents, reverse=True) or len(set(exponents)) != len(exponents):
        raise ValueError(f"exponents must be strictly decreasing: {text!r}")
    if exponents[-1] != 0:
        raise ValueError(f"final exponent must be 0: {text!r}")
    for c, _ in terms:
        if c >= field.q:
            raise ValueError(f"coefficient {c} invalid over GF({field.q})")
    return Polynomial(field, sum(c << e * field.m for c, e in terms))


def emit_generator(p: Polynomial) -> str:
    """Table notation "(c^e ...)": the nonzero coefficients c of p by
    decreasing exponent e, for a p that can be a generator (nonzero constant
    term, degree at most MAX_LENGTH, coefficients 1..3; anything else is a
    one-line ValueError): parse_generator reads it back to p."""
    if not p.coeff(0):
        raise ValueError("a generator has a nonzero constant term")
    if p.degree > MAX_LENGTH:
        raise ValueError(f"generator degree {p.degree} above {MAX_LENGTH}, the longest code length")
    coeffs = p.coeffs
    if max(coeffs) > 3:
        raise ValueError(f"coefficient {max(coeffs)} has no table notation (1..3)")
    terms = [f"{c}^{e}" for e, c in enumerate(coeffs) if c][::-1]
    return "(" + " ".join(terms) + ")"


def _codes(n: int, gens, construction: str):
    """The cyclic codes of length n with the given generator texts, over
    the field whose construction is `construction`."""
    field = next((FIELDS[f] for f, c in CONSTRUCTIONS.items() if c == construction), None)
    if field is None:
        raise ValueError(f"unknown construction {construction!r}")
    codes = []
    for text in gens:
        g = parse_generator(text, field)
        if g.degree > n:
            raise ValueError(f"generator degree {g.degree} exceeds n={n}: {text!r}")
        codes.append(code_from_generator(n, g))
    return tuple(codes)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


class SearchJob:
    def __init__(self, n_min: int, n_max: int, field: str, delta_max: int | None = None):
        if field not in FIELDS:
            raise ValueError(f"unknown field {field!r}; expected gf2 or gf4")
        self.n_min, self.n_max, self.field, self.delta_max = n_min, n_max, field, delta_max

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is SearchJob else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def lengths(self) -> list[int]:
        if self.n_min < 1:
            raise ValueError(f"lengths run 1..{MAX_LENGTH}, got n-min={self.n_min}")
        if self.n_max > MAX_LENGTH:
            raise ValueError(f"lengths run 1..{MAX_LENGTH}, got n-max={self.n_max}")
        # q is 2 or 4, so the lengths coprime to q are the odd ones
        return [n for n in range(max(self.n_min, 2), self.n_max + 1) if n % 2 == 1]


def search(job: SearchJob) -> list[QccReport]:
    """All dual-containing cyclic codes in range with delta <= delta_max,
    in canonical order.  Every code is built and passes the construction
    check; the first member of each orbit is swept, and the others copy
    its report with their own generator.  An orbit whose sweep returns
    None (its delta is above delta_max) gets no report."""
    field, construction = FIELDS[job.field], CONSTRUCTIONS[job.field]
    reports = []
    for n in job.lengths():
        orbits: dict[int, QccReport | None] = {}
        for code, key in dual_containing_codes(n, field):
            K, sweeps = _components(code, construction)
            if key in orbits:
                report = orbits[key] and orbits[key]._replace(generators=(code.g,))
            else:
                report = orbits[key] = _sweep_report(K, sweeps, construction, job.delta_max)
            if report is not None:
                reports.append(report)
    return sorted(reports, key=lambda r: _canonical(report_as_dict(r)))


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


# The canonical order of reports: that of their emitted rows.
_canonical = itemgetter("n", "K", "construction", "generators")


def report_emit(reports, fmt: str = "json") -> bytes:
    """Byte-stable serialization of a report stream, in canonical order."""
    rows = sorted(map(report_as_dict, reports), key=_canonical)
    if fmt == "json":
        return (json.dumps(rows, sort_keys=True, indent=1) + "\n").encode()
    if fmt == "csv":
        lines = ["delta,code,L,generators"]
        for row in rows:
            gens = ";".join(row["generators"])
            lines.append(f'{row["delta"]},"[[{row["n"]},{row["K"]}]]",{row["L"]},"{gens}"')
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# One computation per question, shared by the CLI and verify-tables
# ---------------------------------------------------------------------------


def _limits(n: int, gens, construction: str) -> dict:
    """L, ell0 and delta of the code with these generator texts."""
    return report_as_dict(qcc_burst_limit(_codes(n, gens, construction), construction))


def _rs(m: int, K: int) -> dict:
    """The true image limit of the quantum RS code [[2^m - 1, K]]."""
    rep = rs_image_burst_limit(rs_make(m, K))
    return {"m": rep.m, "n": rep.n, "K": rep.K, "L": rep.L, "lower_bound": rep.lower,
            "qrb_image": rep.qrb_image, "flags": list(rep.flags)}


def _census(n: int, gen: str, construction: str, lmax: int | None) -> QetdStats:
    """The decoder census of the code with this generator text."""
    (code,) = _codes(n, [gen], construction)
    return burst_census(code, construction, lmax=lmax)


# ---------------------------------------------------------------------------
# Table fixtures and verification
# ---------------------------------------------------------------------------


def fixtures_dir() -> Path:
    from importlib import resources  # here, not on import: from Python 3.12 it loads inspect
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


def _row_limits(row: dict) -> dict:
    return _limits(row["n"], row["gens"].split(";"), row["construction"])


# One entry per fixture table: file, column names (the last column holds
# the flags), row name, the template that renders both the printed and the
# computed values, and the computation of the values for one row; the
# columns are named after the keys that computation returns.  Tables with
# an `nk` column ([[n,K]]) also give the row `n` and `K`; a cell that does
# not parse is that row's error, and its K prints as `?`.
_TABLES = (
    ("table1.tsv", "construction nk L delta gens flags", "table1 {nk}",
     "L={L},delta={delta},K={K}", _row_limits),
    ("table2.tsv", "construction nk L ell0 delta gens flags", "table2 {nk}",
     "L={L},ell0={ell0},K={K}", _row_limits),
    ("table3.tsv", "m n K L lower_bound qrb_image flags", "table3 [[{n},{K}]]_2^{m}",
     "L={L},lower={lower_bound},qrb={qrb_image}",
     lambda row: _rs(int(row["m"]), int(row["K"]))),
    ("table4.tsv", "construction nk decoded exact total gen flags", "table4 {nk}",
     "ND={decoded},N0={exact},N={total}",
     lambda row: _census(row["n"], row["gen"], row["construction"], None)._asdict()),
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
    gens = [args.gen] if args.gen2 is None else [args.gen, args.gen2]
    print(json.dumps(_limits(args.n, gens, CONSTRUCTIONS[args.field]), sort_keys=True))
    return 0


def _cmd_rs_limit(args) -> int:
    print(json.dumps(_rs(args.m, args.kq), sort_keys=True))
    return 0


def _cmd_qetd_sim(args) -> int:
    s = _census(args.n, args.gen, CONSTRUCTIONS[args.field], args.lmax)
    print(f"[[{s.n},{s.K}]]\t{s.decoded}\t{s.exact}\t{s.total}\t{s.decoded_ratio:.4f}\t"
          f"{s.exact_ratio:.4f}\t{s.degeneracy_gain:.4f}\t{args.gen}")
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


def build_parser():
    import argparse  # here, not on import: only the CLI loads it

    class _Parser(argparse.ArgumentParser):
        """Usage errors raise ValueError, so `main` reports them as one
        `error:` line and exit 1; subparsers are built from this class too."""

        def error(self, message):
            raise ValueError(message)

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

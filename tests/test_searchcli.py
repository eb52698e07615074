import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import qburst
from qburst.cycliccode import MAX_LENGTH, code_from_generator
from qburst.galois import GF2, GF4, field_make
from qburst.polyring import Polynomial, divisor_generators
from qburst.qccburst import NotDualContaining, qcc_burst_limit
from qburst.searchcli import (
    SearchJob,
    build_parser,
    emit_generator,
    main,
    parse_generator,
    report_emit,
    search,
    verify_tables,
)


def test_parse_examples():
    p = parse_generator("(1^6 2^3 1^0)", GF4)
    assert p.coeffs == (1, 0, 0, 2, 0, 0, 1)
    p = parse_generator("(1^3 1^1 1^0)", GF2)
    assert p.coeffs == (1, 1, 0, 1)


def test_parse_errors():
    with pytest.raises(ValueError, match="invalid over GF"):
        parse_generator("(2^3 1^0)", GF2)
    with pytest.raises(ValueError, match="malformed"):
        parse_generator("1^3 1^0", GF2)
    with pytest.raises(ValueError, match="decreasing"):
        parse_generator("(1^1 1^3 1^0)", GF2)
    with pytest.raises(ValueError, match="decreasing"):
        parse_generator("(1^3 1^3 1^0)", GF2)
    with pytest.raises(ValueError, match="final exponent"):
        parse_generator("(1^3 1^1)", GF2)
    # exponents run up to MAX_LENGTH; a larger one is one error line naming
    # that bound, raised before its digits are laid out
    assert parse_generator("(1^65535 1^0)", GF2).degree == 65535
    for text in ("(1^65536 1^0)", "(1^100000000000000000000 1^0)"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="degree above 65535") as exc:
            parse_generator(text, GF2)
        assert time.perf_counter() - start < 0.1
        assert "\n" not in str(exc.value)


def test_parse_whitespace_insensitive():
    assert parse_generator("( 1^6  2^3 1^0 )", GF4) == parse_generator(
        "(1^6 2^3 1^0)", GF4
    )


def test_emit_examples():
    assert emit_generator(Polynomial.make(GF4, (1, 0, 0, 2, 0, 0, 1))) == "(1^6 2^3 1^0)"
    assert emit_generator(Polynomial.one(GF4)) == "(1^0)"
    with pytest.raises(ValueError):
        emit_generator(Polynomial.zero(GF4))
    # the notation has coefficients 1..3 only: a larger one over GF(16) is
    # one error line naming it, not text that parse_generator rejects
    with pytest.raises(ValueError, match="coefficient 12 ") as exc:
        emit_generator(Polynomial.make(field_make(4), [5, 0, 12, 1]))
    assert "\n" not in str(exc.value)
    p = Polynomial.make(field_make(4), [3, 0, 2, 1])
    assert parse_generator(emit_generator(p), field_make(4)) == p
    # nor has a polynomial that cannot be a generator: x, with its zero
    # constant term, and a degree above the longest code length
    for p in (Polynomial.x_pow(GF2, 1), Polynomial(GF2, 1 | 1 << MAX_LENGTH + 1)):
        with pytest.raises(ValueError, match="constant term|degree 65536 above") as exc:
            emit_generator(p)
        assert "\n" not in str(exc.value)
    assert emit_generator(Polynomial(GF2, 1 | 1 << MAX_LENGTH)) == "(1^65535 1^0)"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16).flatmap(lambda m: st.tuples(
    st.just(field_make(m)),
    # coefficients up to 3 (the notation's) or up to q - 1
    st.sampled_from([min(3, (1 << m) - 1), (1 << m) - 1]).flatmap(
        lambda top_digit: st.lists(st.integers(0, top_digit), max_size=12)),
    st.sampled_from([0, 5, 40, MAX_LENGTH, MAX_LENGTH + 1]),
)))
def test_roundtrip(drawn):
    # over every field, emit_generator refuses, in one line, exactly the
    # polynomials that cannot be generators, and parse_generator reads
    # everything else back
    field, coeffs, top = drawn
    p = Polynomial.make(field, coeffs) + Polynomial.x_pow(field, top)
    if p.coeff(0) and p.degree <= MAX_LENGTH and max(p.coeffs) <= 3:
        assert parse_generator(emit_generator(p), field) == p
    else:
        with pytest.raises(ValueError) as exc:
            emit_generator(p)
        assert "\n" not in str(exc.value)


def test_search_includes_known_codes():
    reports = search(SearchJob(15, 15, "gf4", 0))
    keyed = {(r.n, r.K, emit_generator(r.generators[0])): r.L for r in reports}
    assert keyed[(15, 3, "(1^6 2^3 1^0)")] == 3
    reports = search(SearchJob(13, 13, "gf4", 0))
    assert any(r.K == 1 and r.L == 3 for r in reports)


def test_search_builds_only_admissible_codes(monkeypatch):
    # n = 45 over GF(4) has 32,766 divisors with 1 <= deg g < 45; only the
    # 3^5 - 1 = 242 admissible ones are built, and none is rejected.  They
    # fall into 33 orbits under reversal, conjugation and the twist
    # x -> wx (3 | 45), one limit sweep each (69 under the first two
    # alone).  No generator is divided out of x^n - 1
    # (`code_from_generator`), and no code builds its h.
    built, divided, rejected, swept = [], [], [], []
    enumerate_codes = qburst.searchcli.dual_containing_codes

    def recording(n, field):
        for code, key in enumerate_codes(n, field):
            built.append(code)
            yield code, key

    monkeypatch.setattr("qburst.searchcli.dual_containing_codes", recording)
    monkeypatch.setattr("qburst.searchcli.code_from_generator", lambda *a: divided.append(a))
    monkeypatch.setattr(NotDualContaining, "__init__", lambda self, *a: rejected.append(a))
    sweep = qburst.qccburst._component_sweep
    monkeypatch.setattr(
        "qburst.qccburst._component_sweep", lambda *a: swept.append(a) or sweep(*a)
    )
    reports = search(SearchJob(45, 45, "gf4"))
    assert len(built) == len({code.g for code in built}) == len(reports) == 242
    assert divided == rejected == []
    assert len(swept) == 33
    assert not any("h" in vars(code) for code in built)


@pytest.mark.parametrize("field,lengths,count", [
    ("gf4", range(3, 32, 2), 104), ("gf2", range(3, 32, 2), 40), ("gf4", (39, 45), 268),
], ids=["gf4", "gf2", "gf4-twist"])
def test_search_orbit_members_match_direct_limits(field, lengths, count):
    # oracle for the shared sweep: every report equals the limits of its
    # own code, built from the report's generator and computed directly,
    # and its notation parses back to that generator; n = 39 and 45 have
    # orbits that only the twist x -> wx joins
    f = GF4 if field == "gf4" else GF2
    reports = [r for n in lengths for r in search(SearchJob(n, n, field))]
    assert len(reports) == count
    for r in reports:
        (g,) = r.generators
        assert parse_generator(emit_generator(g), f) == g
        direct = qcc_burst_limit(code_from_generator(r.n, g), r.construction)
        assert (r.K, r.L, r.ell0, r.flags) == (direct.K, direct.L, direct.ell0, direct.flags), r


@pytest.mark.parametrize("field,n_max", [("gf4", 45), ("gf2", 63)])
def test_search_delta_exit_matches_the_exact_search(monkeypatch, field, n_max):
    # oracle for the delta early exit: a search with delta_max D emits
    # exactly the reports of the exact search whose delta is <= D, while
    # its sweeps reduce fewer shifts (the exit fires)
    calls = []
    shortest = qburst.qccburst._shortest_pair
    monkeypatch.setattr(
        "qburst.qccburst._shortest_pair", lambda *a: calls.append(1) or shortest(*a)
    )
    exact = search(SearchJob(3, n_max, field))
    exact_calls = len(calls)
    for delta_max in (0, 1, 2):
        calls.clear()
        reports = search(SearchJob(3, n_max, field, delta_max))
        assert reports == [r for r in exact if r.delta <= delta_max]
        assert len(calls) < exact_calls
    assert reports  # delta <= 2 finds codes over both fields


def test_search_empty_stream():
    assert search(SearchJob(3, 3, "gf4", 2)) == []


def test_search_jobs_are_values():
    job = SearchJob(3, 9, "gf4", 2)
    assert job == SearchJob(3, 9, "gf4", 2) and hash(job) == hash(SearchJob(3, 9, "gf4", 2))
    assert job != SearchJob(3, 9, "gf4") and job != (3, 9, "gf4", 2)


def test_search_job_rejects_unknown_field():
    with pytest.raises(ValueError, match="unknown field 'gf8'; expected gf2 or gf4"):
        SearchJob(3, 9, "gf8")


def _run_fresh(*args):
    """A fresh interpreter on this package's source, with these arguments."""
    src = str(Path(qburst.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )


def test_import_starts_no_process_machinery():
    # search runs serially, so a fresh interpreter's `import qburst` loads
    # neither multiprocessing nor concurrent.futures; nor dataclasses (and
    # with it inspect), which no type uses, nor argparse, which only the CLI
    # loads
    code = (
        "import sys, qburst; print(sorted(m for m in sys.modules if m.split('.')[0] in"
        " ('multiprocessing', 'concurrent', 'dataclasses', 'inspect', 'argparse')))"
    )
    run = _run_fresh("-c", code)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_help_prints_usage():
    run = _run_fresh("-m", "qburst", "--help")
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith("usage: qburst ") and "verify-tables" in run.stdout


def test_report_emit_shapes():
    assert report_emit([], "csv") == b"delta,code,L,generators\n"
    reports = search(SearchJob(5, 5, "gf4", 1))
    payload = report_emit(reports, "json")
    parsed = json.loads(payload)
    assert all(obj["construction"] == "hermitian" for obj in parsed)
    for obj in parsed:
        assert obj["delta"] == obj["n"] - obj["K"] - 4 * obj["L"]
    again = report_emit(reports, "json")
    assert payload == again
    # report_emit sorts on its own: a multi-length, multi-K stream emits the
    # same bytes reversed and shuffled as in the order search returns it
    reports = search(SearchJob(3, 21, "gf4"))
    assert len({(r.n, r.K) for r in reports}) > len({r.n for r in reports}) > 1
    shuffled = list(reports)
    random.Random(38).shuffle(shuffled)
    for fmt in ("json", "csv"):
        expected = report_emit(reports, fmt)
        assert report_emit(reports[::-1], fmt) == report_emit(shuffled, fmt) == expected
    with pytest.raises(ValueError):
        report_emit(reports, "yaml")


def test_cli_burst_limit(capsys):
    assert main(["burst-limit", "--n", "15", "--field", "gf4", "--gen", "(1^6 2^3 1^0)"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["n"], out["K"], out["L"], out["delta"]) == (15, 3, 3, 0)


def test_cli_burst_limit_css_pair(capsys):
    rc = main(
        [
            "burst-limit",
            "--n", "21", "--field", "gf2",
            "--gen", "(1^6 1^4 1^1 1^0)",
            "--gen2", "(1^6 1^4 1^2 1^1 1^0)",
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["K"] == 9


def test_cli_rs_limit(capsys):
    assert main(["rs-limit", "--m", "4", "--kq", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["L"], out["lower_bound"], out["qrb_image"]) == (8, 5, 10)


def test_cli_qetd_sim(capsys):
    assert main(["qetd-sim", "--n", "5", "--field", "gf4", "--gen", "(1^2 2^1 1^0)"]) == 0
    fields = capsys.readouterr().out.strip().split("\t")
    assert fields[0] == "[[5,1]]"
    assert fields[1:4] == ["15", "15", "51"]
    assert fields[-1] == "(1^2 2^1 1^0)"


def test_cli_input_error(capsys):
    assert main(["burst-limit", "--n", "7", "--field", "gf2", "--gen", "(2^1 1^0)"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["rs-limit", "--m", "2", "--kq", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: GF(2^2) with m < 3 has no quantum RS code: n - 4 = -1 < 1\n"


def test_module_form_runs_the_cli():
    # `python -m qburst` from an uninstalled checkout: one stderr line on an
    # input error, JSON on success
    src = str(Path(qburst.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(kq):
        return subprocess.run(
            [sys.executable, "-m", "qburst", "rs-limit", "--m", "3", "--kq", kq],
            capture_output=True, text=True, env=env, timeout=60,
        )

    bad = run("7")
    assert bad.returncode == 1
    assert bad.stdout == ""
    assert len(bad.stderr.splitlines()) == 1 and bad.stderr.startswith("error:")
    good = run("1")
    assert good.returncode == 0 and good.stderr == ""
    assert json.loads(good.stdout)["n"] == 7


def test_cli_search_to_file(tmp_path, capsys):
    out = tmp_path / "reports.json"
    rc = main(
        [
            "search", "--n-min", "13", "--n-max", "15", "--field", "gf4",
            "--delta-max", "0", "--out", str(out), "--format", "json",
        ]
    )
    assert rc == 0
    parsed = json.loads(out.read_bytes())
    assert any(obj["n"] == 15 and obj["K"] == 3 for obj in parsed)


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-dir", "directory"])
def test_cli_search_unwritable_out_is_one_error_line(tmp_path, target):
    out = tmp_path / target
    rc, stdout, err = _run_main(
        ["search", "--n-min", "3", "--n-max", "5", "--field", "gf4", "--out", str(out)]
    )
    assert rc == 1
    assert stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_tables_tmp_fixture(tmp_path):
    (tmp_path / "table1.tsv").write_text(
        "hermitian\t[[15,3]]\t3\t0\t(1^6 2^3 1^0)\t-\n"
        "hermitian\t[[13,1]]\t9\t0\t(1^6 2^5 3^3 2^1 1^0)\twrong-on-purpose\n"
    )
    lines, unexpected = verify_tables(tmp_path)
    assert unexpected == 1
    assert any(line.startswith("ok") for line in lines)
    assert any(line.startswith("MISMATCH") for line in lines)


def test_verify_tables_expected_flag(tmp_path):
    (tmp_path / "table1.tsv").write_text(
        "hermitian\t[[13,1]]\t9\t0\t(1^6 2^5 3^3 2^1 1^0)\texpected-discrepancy:test\n"
    )
    lines, unexpected = verify_tables(tmp_path)
    assert unexpected == 0
    assert any(line.startswith("expected") for line in lines)


def test_cli_verify_tables_exit_codes(tmp_path, capsys):
    (tmp_path / "table1.tsv").write_text(
        "hermitian\t[[15,3]]\t3\t0\t(1^6 2^3 1^0)\t-\n"
    )
    assert main(["verify-tables", "--fixtures", str(tmp_path)]) == 0
    (tmp_path / "table1.tsv").write_text(
        "hermitian\t[[15,3]]\t4\t0\t(1^6 2^3 1^0)\t-\n"
    )
    assert main(["verify-tables", "--fixtures", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("subdir", [None, "nonexistent"], ids=["empty", "missing"])
def test_cli_verify_tables_without_tables_fails(tmp_path, subdir):
    # a mistyped --fixtures path must not "verify" zero rows
    directory = tmp_path / subdir if subdir else tmp_path
    rc, out, err = _run_main(["verify-tables", "--fixtures", str(directory)])
    assert rc == 1
    assert out == ""
    assert err == f"error: no fixture tables in {directory}\n"


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["rs-limit", "--m", "4", "--kq", "5"])
    assert args.m == 4


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: command"),
        (["search", "--n-min", "3", "--n-max", "5", "--field", "gf4", "--jobs", "2"],
         "unrecognized arguments: --jobs 2"),
        (["burst-limit", "--n", "x", "--field", "gf4", "--gen", "(1^0)"],
         "argument --n: invalid int value: 'x'"),
        (["verify-tables", "--bogus"], "unrecognized arguments: --bogus"),
    ],
    ids=["no-subcommand", "search-jobs", "non-integer-n", "verify-tables-bogus"],
)
def test_cli_usage_error_is_one_error_line(argv, message):
    # a usage error exits 1, like any input error; exit 2 means a fixture
    # discrepancy
    assert _run_main(argv) == (1, "", f"error: {message}\n")


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--help"])
    assert exc.value.code == 0
    assert "--n-min" in capsys.readouterr().out


def test_bundled_fixtures_tables_1_and_2(tmp_path):
    # every bundled generator string parses into a dual-containing code whose
    # computed limits match the printed row, or the row carries a flag
    import shutil

    from qburst.searchcli import fixtures_dir

    for name in ("table1.tsv", "table2.tsv"):
        shutil.copy(fixtures_dir() / name, tmp_path / name)
    lines, unexpected = verify_tables(tmp_path)
    assert unexpected == 0
    assert sum(1 for l in lines if l.startswith("ok")) >= 50
    # regression oracle: the exact lines, computed before the window kernel
    # was shared between the classical, QCC and RS limits
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "bd9cceacffdc41e31eb2d132a9149bf80ed0f4e83603be2dfa28e6039ecbc268"


def test_bundled_fixture_table3(tmp_path):
    # regression oracle: the exact table 3 lines, computed before the RS
    # scalar closure moved onto packed binary images
    import shutil

    from qburst.searchcli import fixtures_dir

    shutil.copy(fixtures_dir() / "table3.tsv", tmp_path / "table3.tsv")
    lines, unexpected = verify_tables(tmp_path)
    assert unexpected == 0
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f947e4ce162ce68a3e3ee577b75653ec5b0422283e4a8e09db5fd6cdb807d8cd"
    # and the whole default `verify-tables` output, every bundled table, as
    # the CLI prints it: tables 3 and 4 share the `rs-limit` and `qetd-sim`
    # computations, so this pins their rendering too
    lines, unexpected = verify_tables()
    assert unexpected == 0
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == "eb96bb50e0f9675ac63941d981f62084d8d5145470d1d5e45670d279c3a7cc27"


@pytest.mark.parametrize(
    "job,fmt,digest",
    [
        (SearchJob(3, 31, "gf4", 2), "json",
         "94868adf0358e262145a5625d65b3e854ae61a7a1056f6e7c7e5ebda3612066a"),
        (SearchJob(3, 31, "gf2"), "csv",
         "3dfe43a8e21cf5fdb9c8b34ef782cd37ff4f6024ed687ff061c8ec5721bf0301"),
        (SearchJob(3, 45, "gf4"), "json",
         "6b876c69db54cdd15bf77661b751735e9c9b844d75ab43275f17fc8ee648598a"),
        (SearchJob(3, 63, "gf2"), "json",
         "61c9113fc473ac3a4163479524f471e1264108367587c12686949f5cc76447f2"),
        (SearchJob(3, 64, "gf2", 2), "json",
         "9d50b12bec55fd525d121d9e3402d892b2b20f0563b52745b346016eb5bec22a"),
        (SearchJob(3, 45, "gf4", 2), "csv",
         "c1b8e7f0b2d75cf6ac81e47bd7fac03b4543642f8c9ab5a763a3a71558624012"),
    ],
    ids=["gf4-json", "gf2-csv", "gf4-json-3..45", "gf2-json-3..63",
         "gf2-json-3..64-delta2", "gf4-csv-3..45-delta2"],
)
def test_search_output_digests(job, fmt, digest):
    # regression oracle: search output bytes are pinned across refactors
    assert hashlib.sha256(report_emit(search(job), fmt)).hexdigest() == digest


@pytest.mark.parametrize(
    "name,row,good",
    [
        ("table1.tsv", "hermitian\tbad\t3\t0\t(1^6 2^3 1^0)",  # unparsable [[n,K]]
         "hermitian\t[[15,3]]\t3\t0\t(1^6 2^3 1^0)\t-"),
        ("table3.tsv", "3\t7\t7\t0\t0\t0",  # K = 7 leaves hbar < 1
         "4\t15\t5\t8\t5\t10\t-"),
        ("table4.tsv", "hermitian\t[[5,1]]\t0\t0\t0\t(1^5 1^0)",  # not dual-containing
         "hermitian\t[[5,1]]\t15\t15\t51\t(1^2 2^1 1^0)\t-"),
    ],
    ids=["table1", "table3", "table4"],
)
def test_verify_tables_rejected_row_is_reported_per_row(tmp_path, capsys, name, row, good):
    # the rejected row gets its own line, and the good row after it still runs
    fixture = tmp_path / name
    fixture.write_text(row + "\texpected-discrepancy:test\n" + good + "\n")
    assert main(["verify-tables", "--fixtures", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("expected  ") and "computed error: " in out
    assert out.splitlines()[1].startswith("ok        ")
    fixture.write_text(row + "\t-\n" + good + "\n")
    assert main(["verify-tables", "--fixtures", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("MISMATCH  ") and "computed error: " in out
    assert out.splitlines()[1].startswith("ok        ")


@pytest.mark.parametrize("n_min", ["-5", "0"])
def test_cli_search_rejects_n_min_below_1(n_min):
    # lengths run 1..MAX_LENGTH at both ends of the range
    assert _run_main(["search", "--n-min", n_min, "--n-max", "7", "--field", "gf2"]) == (
        1, "", f"error: lengths run 1..65535, got n-min={n_min}\n"
    )
    rc, out, _ = _run_main(["search", "--n-min", "1", "--n-max", "7", "--field", "gf2"])
    assert rc == 0 and json.loads(out)


def test_cli_search_lengths_with_high_degree_factors(capsys):
    # x^53 - 1, x^59 - 1 and x^61 - 1 have GF(2) factors of degree 52, 58, 60.
    assert main(["search", "--field", "gf2", "--n-min", "53", "--n-max", "61"]) == 0
    json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "argv",
    [
        ["rs-limit", "--m", "3", "--kq", "7"],  # k = n: g = 1, no check rows
        ["rs-limit", "--m", "6", "--kq", "61"],  # hbar = 0
        ["qetd-sim", "--n", "7", "--field", "gf2", "--gen", "(1^3 1^1 1^0)", "--lmax", "0"],
        ["qetd-sim", "--n", "7", "--field", "gf2", "--gen", "(1^3 1^1 1^0)", "--lmax", "9"],
        ["burst-limit", "--n", "7", "--field", "gf4", "--gen", "(1^0)"],  # r = 0
        ["burst-limit", "--n", "7", "--field", "gf2", "--gen", "(1^3 1^1 1^0)", "--gen2", "(1^0)"],
        # an empty second generator is malformed, not left out
        ["burst-limit", "--n", "7", "--field", "gf2", "--gen", "(1^3 1^1 1^0)", "--gen2", ""],
        ["burst-limit", "--n", "5", "--field", "gf4", "--gen", "(1^2 2^1 1^0)",
         "--gen2", "(1^2 2^1 1^0)"],  # Hermitian takes one generator
    ],
)
def test_cli_rejects_degenerate_parameters(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,named",
    [
        (["burst-limit", "--n", "5", "--field", "gf4", "--gen", "(1^100000000000000000000 1^0)"],
         "degree"),
        (["burst-limit", "--n", "99999999999999999999", "--field", "gf4", "--gen", "(1^2 2^1 1^0)"],
         "65535"),
        (["qetd-sim", "--n", "99999999999999999999", "--field", "gf2", "--gen", "(1^1 1^0)"],
         "65535"),
        (["search", "--n-min", "3", "--n-max", "99999999999999999999", "--field", "gf4"],
         "65535"),
    ],
    ids=["generator-degree", "burst-limit-length", "qetd-sim-length", "search-length"],
)
def test_cli_oversized_integers_are_one_error_line(argv, named):
    # a generator degree above n is rejected before any coefficient is laid
    # out, and a length above MAX_LENGTH is rejected, naming that bound,
    # before x^n - 1 is built or (by search) before the lengths are listed
    rc, out, err = _run_main(argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err


# ---------------------------------------------------------------------------
# CLI contract: every argv ends with exit 0 or 1 (2 only for a fixture
# discrepancy) and at most one line on stderr, never a traceback.
# ---------------------------------------------------------------------------


def _run_main(argv) -> tuple[int, str, str]:
    out = io.TextIOWrapper(io.BytesIO())  # search writes to sys.stdout.buffer
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    out.flush()
    return rc, out.buffer.getvalue().decode(), err.getvalue()


def _assert_contract(argv, allowed=(0, 1)) -> tuple[int, str]:
    rc, out, err = _run_main(argv)
    assert rc in allowed, (argv, rc, err)
    assert err.count("\n") <= 1 and err.endswith("\n") == bool(err), (argv, err)
    assert (rc == 1) == err.startswith("error:"), (argv, rc, err)
    return rc, out


_FIELD = st.sampled_from(["gf2", "gf4"])
_LENGTH = st.integers(-1, 25)
_MALFORMED = st.text(alphabet="()^0123 ", max_size=10)


def _notation(coeffs) -> str:
    """Table notation of any coefficient list, low degree first, with a
    nonzero entry: also the texts that are no generator, such as (1^1),
    which emit_generator refuses to write."""
    return "(" + " ".join(f"{c}^{e}" for e, c in reversed(list(enumerate(coeffs))) if c) + ")"


@st.composite
def _generator_text(draw, n: int, field: str):
    """A divisor of x^n - 1 in table notation, or an arbitrary notation."""
    f = GF4 if field == "gf4" else GF2
    if n >= 1 and n % 2 == 1 and draw(st.booleans()):
        divisors = list(divisor_generators(n, f))
        return emit_generator(draw(st.sampled_from(divisors)))
    coeffs = draw(st.lists(st.integers(0, f.q - 1), min_size=1, max_size=max(n, 0) + 2))
    if any(coeffs):
        return _notation(coeffs)
    return draw(_MALFORMED)


_CONTRACT = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _burst_limit_argv(draw):
    n, field = draw(_LENGTH), draw(_FIELD)
    argv = ["burst-limit", "--n", str(n), "--field", field]
    argv += ["--gen", draw(_generator_text(n, field))]
    if draw(st.booleans()):
        argv += ["--gen2", draw(_generator_text(n, field))]
    return argv


# A code that admits the quantum construction has K >= 0, so a run that
# succeeds must report one.
@_CONTRACT
@example(["burst-limit", "--n", "5", "--field", "gf4", "--gen", "(1^5 1^0)"])
@example(["burst-limit", "--n", "5", "--field", "gf4", "--gen", "(1^0)"])
@given(_burst_limit_argv())
def test_cli_contract_burst_limit(argv):
    rc, out = _assert_contract(argv)
    if rc == 0:
        assert json.loads(out)["K"] >= 0, (argv, out)


@_CONTRACT
@example(3, 7)
@example(6, 61)
@given(st.integers(-1, 4), st.integers(-20, 20))
def test_cli_contract_rs_limit(m, kq):
    _assert_contract(["rs-limit", "--m", str(m), "--kq", str(kq)])


@st.composite
def _qetd_sim_argv(draw):
    # Lengths stay small: a census decodes every burst up to lmax.
    n, field = draw(st.integers(-1, 7)), draw(_FIELD)
    argv = ["qetd-sim", "--n", str(n), "--field", field]
    argv += ["--gen", draw(_generator_text(n, field))]
    if draw(st.booleans()):
        argv += ["--lmax", str(draw(st.integers(-1, n + 2)))]
    return argv


@_CONTRACT
@example(["qetd-sim", "--n", "5", "--field", "gf4", "--gen", "(1^5 1^0)"])
@example(["qetd-sim", "--n", "5", "--field", "gf4", "--gen", "(1^0)", "--lmax", "1"])
@given(_qetd_sim_argv())
def test_cli_contract_qetd_sim(argv):
    rc, out = _assert_contract(argv)
    if rc == 0:
        K = int(out.split("\t")[0].strip("[]").split(",")[1])
        assert K >= 0, (argv, out)


@_CONTRACT
@given(
    _LENGTH,
    _LENGTH,
    _FIELD,
    st.one_of(st.none(), st.integers(-1, 3)),
    st.sampled_from(["json", "csv"]),
)
def test_cli_contract_search(n_min, n_max, field, delta_max, fmt):
    argv = ["search", "--n-min", str(n_min), "--n-max", str(n_max), "--field", field]
    argv += ["--format", fmt]
    if delta_max is not None:
        argv += ["--delta-max", str(delta_max)]
    _assert_contract(argv)


_FIXTURE_ROWS = {
    "table1.tsv": [
        "hermitian\t[[15,3]]\t3\t0\t(1^6 2^3 1^0)\t-",
        "hermitian\t[[15,3]]\t4\t0\t(1^6 2^3 1^0)\t-",
        "css\t[[7,1]]\t1\t0\t(1^3 1^1 1^0)\t-",
        "hermitian\t[[15,3]]\t3",
        "hermitian\tbad\t3\t0\t(1^6 2^3 1^0)\t-",
    ],
    "table3.tsv": ["4\t15\t5\t8\t5\t10\t-", "3\t7\t7\t0\t0\t0\t-", "x\t7\t7\t0\t0\t0\t-"],
    "table4.tsv": [
        "hermitian\t[[5,1]]\t15\t15\t51\t(1^2 2^1 1^0)\t-",
        "css\t[[7,1]]\t1\t1\t1\t(1^1 1^0)\t-",
    ],
}


@_CONTRACT
@given(st.fixed_dictionaries(
    {name: st.lists(st.sampled_from(rows), max_size=2) for name, rows in _FIXTURE_ROWS.items()}
))
def test_cli_contract_verify_tables(tables):
    with tempfile.TemporaryDirectory() as tmp:
        for name, rows in tables.items():
            if rows:
                Path(tmp, name).write_text("".join(row + "\n" for row in rows))
        _assert_contract(["verify-tables", "--fixtures", tmp], allowed=(0, 1, 2))

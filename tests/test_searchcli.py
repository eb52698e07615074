import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import qburst
from qburst.galois import GF2, GF4
from qburst.polyring import Polynomial, divisor_generators
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


def test_parse_whitespace_insensitive():
    assert parse_generator("( 1^6  2^3 1^0 )", GF4) == parse_generator(
        "(1^6 2^3 1^0)", GF4
    )


def test_emit_examples():
    assert emit_generator(Polynomial.make(GF4, (1, 0, 0, 2, 0, 0, 1))) == "(1^6 2^3 1^0)"
    assert emit_generator(Polynomial.one(GF4)) == "(1^0)"
    with pytest.raises(ValueError):
        emit_generator(Polynomial.zero(GF4))


@settings(max_examples=300)
@given(st.lists(st.integers(0, 3), min_size=0, max_size=10))
def test_roundtrip(coeffs):
    coeffs = [c if c else 1 for c in coeffs[:1]] + coeffs[1:]  # nonzero constant
    if not coeffs:
        coeffs = [1]
    p = Polynomial.make(GF4, coeffs)
    if p.is_zero or p.coeff(0) == 0:
        return
    assert parse_generator(emit_generator(p), GF4) == p


def test_search_includes_known_codes():
    reports = search(SearchJob(15, 15, "gf4", 0))
    keyed = {(r.n, r.K, emit_generator(r.generators[0])): r.L for r in reports}
    assert keyed[(15, 3, "(1^6 2^3 1^0)")] == 3
    reports = search(SearchJob(13, 13, "gf4", 0))
    assert any(r.K == 1 and r.L == 3 for r in reports)


def test_search_empty_stream():
    assert search(SearchJob(3, 3, "gf4", 2)) == []


def test_search_deterministic_across_workers():
    job1 = SearchJob(3, 15, "gf4", 2, jobs=1)
    job2 = SearchJob(3, 15, "gf4", 2, jobs=2)
    assert report_emit(search(job1)) == report_emit(search(job2))


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


def test_jobs_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QBURST_JOBS", "2")
    rc = main(
        ["search", "--n-min", "5", "--n-max", "7", "--field", "gf4", "--out", "-"]
    )
    assert rc == 0
    json.loads(capsys.readouterr().out)


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


@pytest.mark.parametrize(
    "job,fmt,digest",
    [
        (SearchJob(3, 31, "gf4", 2), "json",
         "94868adf0358e262145a5625d65b3e854ae61a7a1056f6e7c7e5ebda3612066a"),
        (SearchJob(3, 31, "gf2"), "csv",
         "3dfe43a8e21cf5fdb9c8b34ef782cd37ff4f6024ed687ff061c8ec5721bf0301"),
    ],
    ids=["gf4-json", "gf2-csv"],
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
        ["burst-limit", "--n", "5", "--field", "gf4", "--gen", "(1^2 2^1 1^0)",
         "--gen2", "(1^2 2^1 1^0)"],  # Hermitian takes one generator
    ],
)
def test_cli_rejects_degenerate_parameters(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# CLI contract: any argv that parses ends with exit 0 or 1 (2 only for a
# fixture discrepancy) and at most one line on stderr, never a traceback.
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


@st.composite
def _generator_text(draw, n: int, field: str):
    """A divisor of x^n - 1 in table notation, or an arbitrary notation."""
    f = GF4 if field == "gf4" else GF2
    if n >= 1 and n % 2 == 1 and draw(st.booleans()):
        divisors = list(divisor_generators(n, f))
        return emit_generator(draw(st.sampled_from(divisors)))
    coeffs = draw(st.lists(st.integers(0, f.q - 1), min_size=1, max_size=max(n, 0) + 2))
    if any(coeffs):
        return emit_generator(Polynomial.make(f, coeffs))
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
    st.one_of(st.none(), st.integers(-1, 2)),
    st.sampled_from(["json", "csv"]),
)
def test_cli_contract_search(n_min, n_max, field, delta_max, jobs, fmt):
    argv = ["search", "--n-min", str(n_min), "--n-max", str(n_max), "--field", field]
    argv += ["--format", fmt, "--jobs", str(1 if jobs is None else jobs)]
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

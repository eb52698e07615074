"""qburst benchmark.

    python3 perfbench/run.py --workload limits --seed 1 --seconds 30 --trace 0

Run from the root of a qburst checkout.  The load is a closed loop from
one process: each pass runs in a fresh interpreter (``worker.py``) that
answers its items one at a time with ``jobs=1``, and the next pass starts
when it ends.  Passes repeat while another one is expected to end within
``--seconds`` (there is always at least one); figures are medians over
passes.  Every item's outcome is checked against
``reference.json``.

Times are rescaled to a reference host speed: the worker samples the
speed of the host while each item runs (``speed.py``), because the
shared hosts this runs on change speed by more than the figures may
move.  stderr gives the measured pass time next to the rescaled one.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
plain pass, one traced pass (spans go to ``perfbench/out/``), and the
layer probes, and prints the per-layer metrics with the tracing overhead.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

# A run must end within 180 s; children get what is left of this.
RUN_LIMIT_S = 170
# Set-up-only children per run, on top of the set-up of every pass.
SETUP_SAMPLES = 5

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CENSUS_KEYS = ("n5", "n7", "n13", "n17", "n23_l7", "n25_l7")

PER_LAYER = {
    "galois.mul_calls": "count",
    "galois.mul_per_s.gf4": "1/s",
    "galois.mul_per_s.gf64": "1/s",
    "polyring.mod_calls": "count",
    "polyring.divisors_s": "s",
    "polyring.mod_per_s.n63": "1/s",
    "polyring.factor_errors": "count",
    "matgf.row_reduce_calls": "count",
    "matgf.row_reduce_s": "s",
    "matgf.matmul_calls": "count",
    "matgf.matmul_s": "s",
    "matgf.rank_per_s": "1/s",
    "cycliccode.dual_tests": "count",
    "cycliccode.dual_test_s": "s",
    "cycliccode.dual_admit_ratio": "ratio",
    "cycliccode.member_calls": "count",
    "cycliccode.member_s": "s",
    "qccburst.windows": "count",
    "qccburst.deficient_windows": "count",
    "qccburst.pairs": "count",
    "qccburst.nondegenerate_pairs": "count",
    "qccburst.self_s": "s",
    "qrsburst.windows": "count",
    "qrsburst.combos_checked": "count",
    "qrsburst.self_s": "s",
    "qetd.bursts": "count",
    "qetd.self_s": "s",
    **{f"qetd.bursts_per_s.{key}": "1/s" for key in CENSUS_KEYS},
    "searchcli.parse_s": "s",
    "searchcli.emit_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def tail_latency(latencies: list[float]) -> tuple[float, int]:
    """Latency at the highest whole percentile with at least ten samples
    above it (nearest rank), and that percentile; the maximum when there
    are ten samples or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    percentile = 100 * (n - 10) // n
    return xs[(percentile * n + 99) // 100 - 1], percentile


def census_key(item: dict) -> str:
    return f"n{item['n']}" + (f"_l{item['lmax']}" if item["lmax"] else "")


class Children:
    """Starts worker processes one at a time, within the run's time limit."""

    def __init__(self, src: Path, workload: str, seed: int):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.base = {"workload": workload, "seed": seed}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )

    def run(self, mode: str, **extra) -> dict:
        cfg = json.dumps({**self.base, "mode": mode, **extra})
        spawned = time.monotonic()
        if spawned >= self.deadline:
            raise BenchError("run time limit reached")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), cfg],
                env=self.env, stdout=subprocess.PIPE, text=True,
                timeout=self.deadline - spawned,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker passed the run time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with status {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if "ready" in result:
            result["setup_s"] = (result["ready"] - spawned - result["spent"]) * result["factor"]
        return result


def normalized_ms(record: dict) -> float:
    """An item's latency rescaled to the reference speed (``speed.py``)."""
    return record["ms"] * record["factor"]


def normalized_wall(result: dict) -> float:
    return sum(normalized_ms(r) for r in result["items"]) / 1e3


def failures(records: list[dict]) -> list[dict]:
    bad = [r for r in records if r["status"] == "MISMATCH"]
    for r in bad:
        print(f"failed item {r['id']}: {r['outcome']}", file=sys.stderr)
    return bad


def measure(children: Children, seconds: int) -> tuple[dict, int, int]:
    children.run("setup")  # writes bytecode and warms the file cache; not timed
    passes = []
    start = time.monotonic()
    while True:
        passes.append(children.run("pass"))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > seconds:  # the next pass would not fit
            break
    setups = [p["setup_s"] for p in passes]
    setups += [children.run("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]

    records = [r for p in passes for r in p["items"]]
    by_item: dict[str, list[float]] = {}
    for r in records:
        by_item.setdefault(r["id"], []).append(normalized_ms(r))
    # An item's latency is its mean over the passes: with the few passes a run
    # holds, the mean of each item's samples varies less than their median.
    latencies = [statistics.fmean(ms) for ms in by_item.values()]
    tail, percentile = tail_latency(latencies)
    walls = [normalized_wall(p) for p in passes]
    units = [sum(r["units"] for r in p["items"]) for p in passes]
    values = {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(u / w for u, w in zip(units, walls)),
        "item_p50_ms": statistics.median(latencies),
        "item_tail_ms": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    print(
        f"measured wall_s {statistics.median(p['wall_s'] for p in passes):.4f} s before "
        f"rescaling to the reference speed",
        file=sys.stderr,
    )
    print(
        f"{len(passes)} passes, {len(records)} items; item latencies are per-item means, "
        f"item_tail_ms is p{percentile} over {len(latencies)} items; "
        f"setup_s is the median of {len(setups)}",
        file=sys.stderr,
    )
    return values, len(records), len(failures(records))


def measure_layers(children: Children, spans_out: Path) -> tuple[dict, int, int]:
    children.run("setup")
    plain = children.run("pass")
    traced = children.run("trace", spans_out=str(spans_out))
    probe = children.run("probe")

    records = plain["items"] + traced["items"]
    failed = len(failures(records)) + probe["mismatches"]
    plain_outcomes = {r["id"]: r["outcome"] for r in plain["items"]}
    for r in traced["items"]:
        if r["outcome"] != plain_outcomes[r["id"]]:
            print(f"traced output differs for {r['id']}", file=sys.stderr)
            failed += 1

    values = {name: 0 for name in PER_LAYER}
    values.update(traced["layer"])
    values.update(probe["metrics"])
    if children.base["workload"] == "census":
        items = {it["id"]: it for it in workloads.load_reference()["census"]}
        for r in plain["items"]:
            values[f"qetd.bursts_per_s.{census_key(items[r['id']])}"] = (
                r["units"] / (normalized_ms(r) / 1e3)
            )
    values["trace.overhead_ratio"] = normalized_wall(traced) / normalized_wall(plain)
    print(
        f"{traced['spans']} spans written to {spans_out}; traced pass "
        f"{normalized_wall(traced):.3f} s against {normalized_wall(plain):.3f} s untraced "
        f"(at the reference speed)",
        file=sys.stderr,
    )
    return values, len(records), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = Path.cwd() / "src"
    if not (src / "qburst" / "__init__.py").is_file():
        print("error: src/qburst not found; run from the root of a qburst checkout",
              file=sys.stderr)
        return 2

    children = Children(src, args.workload, args.seed)
    try:
        if args.trace:
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            spans_out = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
            values, attempted, failed = measure_layers(children, spans_out)
            units = PER_LAYER
        else:
            values, attempted, failed = measure(children, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, unit in units.items():
        print(f"{args.workload:7s} {name:30s} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One child process of the benchmark: a fresh interpreter, so the
package's caches (``lru_cache``, ``cached_property``) start cold.

    python3 perfbench/worker.py '<json config>'

Modes: ``setup`` stops once the inputs are built; ``pass`` runs the
items of one pass one at a time; ``trace`` does the same with the
tracer installed and writes its spans; ``probe`` runs the layer probes.
Every mode but ``probe`` samples the host's speed from its start
(``speed.py``): each item's time comes with the factor that rescales it
to the reference speed, and the set-up with its own.
The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    cfg = json.loads(sys.argv[1])
    if cfg["mode"] == "probe":
        import probes
        import qburst

        print(json.dumps(probes.run_all(qburst)))
        return 0

    import speed

    sampler = speed.Sampler()
    first = sampler.mark()
    sampler.start()
    import qburst

    import workloads

    tracer = None
    if cfg["mode"] == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install(qburst)
    items = workloads.pass_items(cfg["workload"], cfg["seed"], workloads.load_reference())
    run = workloads.prepare(qburst, cfg["workload"], items)
    ready = time.monotonic()
    mark = sampler.mark()
    # Every sample so far was taken before ``ready``.
    setup = {"ready": ready, "spent": sum(sampler.durations[:mark]),
             "factor": sampler.factor(first, mark)}
    if cfg["mode"] == "setup":
        sampler.stop()
        print(json.dumps(setup))
        return 0

    records = []
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        t0 = time.perf_counter()
        try:
            outcome = run(item)
        except Exception as exc:  # one failed item must not end the pass
            outcome = workloads.error_outcome(exc)
        t1 = time.perf_counter()
        before, mark = mark, sampler.mark()
        ms = (t1 - t0 - sampler.spent(before, mark, t0, t1)) * 1e3
        records.append({
            "id": item["id"], "ms": ms, "factor": sampler.factor(before, mark),
            "units": item.get("units", 1),
            "status": workloads.classify(item, outcome), "outcome": outcome,
        })
    sampler.stop()
    result = {
        **setup,
        "wall_s": sum(r["ms"] for r in records) / 1e3,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": records,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layer"] = tracer.layer_metrics()
        result["spans"] = len(tracer.spans)
        tracer.write_spans(cfg["spans_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

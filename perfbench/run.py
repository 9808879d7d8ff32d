#!/usr/bin/env python3
"""terraseg benchmark: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload ingest-1024|train-256|infer-512
                             [--seed N] [--seconds S] [--trace 0|1]

Load shape: a closed loop. The harness calls one CLI stage at a time in
process through ``terraseg.cli.main`` and starts the next when the last
returns; a nonzero exit is a failed operation. BLAS and OpenMP run on one
thread. A run sets the workload up once, runs the timed stages, and repeats
them for as long as another iteration still ends within ``--seconds``; it
reports medians over the iterations. The first iteration's outputs are
checked. ``peak_rss_mb`` is read next. Then the run sets the workload up
again, to the workload's fixed number of set-ups (``setup_s`` is their
median). Every iteration's outputs must hash to the same digest, and the
first set-up and iteration must hash as in an earlier run of the same code
and seed (kept in ``.perfbench/digests.json``).

End-to-end metrics (``--trace 0``), printed with quartiles and counts, then
as the last line of JSON:

    setup_s      s    scene synthesis, config files and the untimed stages
    wall_s       s    the timed CLI stages of one iteration
    items_per_s  1/s  the workload's work over the stages that do it:
                      ingest-1024  tile-weeks written / ingest_s
                      train-256    sample-steps (samples x epochs) / train_s
                      infer-512    tile-weeks inferred / (evaluate_s + predict_s)
    peak_rss_mb  MB   ru_maxrss of the run's process after the timed iterations

The error rate is ``failed / attempted`` of the JSON line. ``--trace 1``
measures the same way, then runs one more iteration with tracer.py's wrappers
installed, prints the per-layer metrics instead and writes the spans as
Chrome Trace Event JSON to ``.perfbench/traces/``. Full results, with the
machine record, go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import bootstrap

MAX_ITERATIONS = 100
DEFAULT_SEED = 11
STATE = bootstrap.ROOT / ".perfbench"


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def spread(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def code_hash() -> str:
    h = hashlib.sha256()
    for base in (bootstrap.SRC, bootstrap.ROOT / "perfbench"):
        for f in sorted(base.rglob("*.py")):
            h.update(f"{f.relative_to(bootstrap.ROOT)}\0".encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def check_ledger(tally, key: str, digests: dict) -> None:
    """Compare this run's digests with an earlier run of the same code and seed."""
    path = STATE / "digests.json"
    try:
        ledger = json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        ledger = {}
    if key in ledger:
        for name, want in ledger[key].items():
            tally.same(f"{name} vs an earlier run", digests.get(name, ""), want)
        return
    ledger[key] = digests
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def iterate(wl, ctx, out, tally, digests: list[str], check: bool) -> dict | None:
    """One timed iteration; stage -> seconds, or None when a stage failed."""
    from workloads import digest, run_cli

    wl.reset(ctx, out)
    times: dict[str, float] = {}
    for stage, argv in wl.stages(ctx, out):
        ok, seconds = run_cli(tally, argv)
        if not ok:
            return None
        times[stage] = times.get(stage, 0.0) + seconds
    if check:
        wl.check(ctx, out, tally)
    try:
        digests.append(digest(wl.outputs(ctx, out)))
    except OSError as exc:
        tally.attempted += 1
        tally.fail(f"digest: {exc}")
    else:
        if len(digests) > 1:
            tally.same("outputs", digests[-1], digests[0])
    return times


def set_up(wl, work, seed, tally, setup_s: list[float]):
    """One timed set-up in a fresh work directory; its context, or None if it failed."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.perf_counter()
    ctx = wl.setup(work, seed, tally)
    setup_s.append(time.perf_counter() - start)
    return ctx


def measure(wl, seed: int, seconds: int, trace: bool) -> dict:
    import tracer
    from workloads import Tally, digest

    tally = Tally()
    work = STATE / "work" / wl.name
    out = work / "iter"
    setup_s, setup_digests, iterations, digests, layers = [], [], [], [], {}
    try:
        ctx = set_up(wl, work, seed, tally, setup_s)
        if ctx is not None:
            setup_digests.append(digest(wl.setup_outputs(ctx)))
            deadline = time.perf_counter() + seconds
            while len(iterations) < MAX_ITERATIONS:
                wrapped = tracer.installed()
                if wrapped:
                    raise RuntimeError(f"timing iteration would run through wrappers {wrapped}")
                start = time.perf_counter()
                times = iterate(wl, ctx, out, tally, digests, check=not iterations)
                if times is None:
                    break
                iterations.append(times)
                end = time.perf_counter()
                if end + (end - start) > deadline:
                    break  # the next iteration would end past the measuring time
        # before the repeated set-ups: each leaves the heap of the process larger
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace and iterations:
            layers = traced_iteration(wl, ctx, out, tally, digests, iterations)
        items = ctx.items if ctx is not None else 0
        while ctx is not None and not trace and len(setup_s) < wl.setups:
            ctx = None  # drop the last set-up's scene before making the next
            ctx = set_up(wl, work, seed, tally, setup_s)
        if setup_digests and digests:
            check_ledger(tally, f"{wl.name} seed={seed} code={code_hash()[:16]}",
                         {"setup": setup_digests[0], "outputs": digests[0]})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    named: dict[str, list[float]] = {"setup_s": setup_s}
    metric, stages = wl.throughput
    for times in iterations:
        for stage, secs in times.items():
            named.setdefault(f"{stage}_s", []).append(secs)
        named.setdefault(metric, []).append(items / sum(times[s] for s in stages))
        named.setdefault("wall_s", []).append(sum(times.values()))
    return {"tally": tally, "named": named, "layers": layers, "metric": metric,
            "iterations": len(iterations), "peak_rss_mb": peak_rss_mb,
            "digests": {"setup": setup_digests, "outputs": digests[:1]}}


def traced_iteration(wl, ctx, out, tally, digests, iterations) -> dict:
    import tracer

    tr = tracer.Tracer()
    tr.install()
    try:
        times = iterate(wl, ctx, out, tally, digests, check=False)
    finally:
        tr.uninstall()
    if times is None:
        return {}
    layers = tr.layer_metrics()
    store_bytes = sum(f.stat().st_size for f in ctx.store.rglob("*") if f.is_file())
    layers["chunkstore.store_bytes"] = store_bytes
    layers["chunkstore.write_amplification"] = (
        layers["chunkstore.write_region.io_write_bytes"] / store_bytes)
    layers["process.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced = statistics.median(sum(t.values()) for t in iterations)
    layers["trace.overhead_s"] = sum(times.values()) - untraced
    layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / untraced
    tr.chrome_trace(STATE / "traces" / f"{wl.name}-seed{ctx.seed}.json",
                    {"workload": wl.name, "seed": ctx.seed,
                     "machine": bootstrap.machine_record(ctx.seed)})
    return dict(sorted(layers.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=("ingest-1024", "train-256", "infer-512"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    machine = bootstrap.machine_record(args.seed)
    res = measure(wl, args.seed, args.seconds, bool(args.trace))
    tally, named = res["tally"], res["named"]

    print(f"perfbench {wl.name}: seed {args.seed}, {res['iterations']} timed iterations "
          f"in {args.seconds} s, tracing {'on for one more' if args.trace else 'off'}")
    print("machine " + json.dumps(machine, sort_keys=True))
    end_to_end, per_layer = metric_units()
    for name, values in named.items():
        if values:
            q1, med, q3 = spread(values)
            unit = "1/s" if name == res["metric"] else "s"
            print(f"  {name:26s} {med:12.4f} {unit:4s} q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    print(f"  {'peak_rss_mb':26s} {res['peak_rss_mb']:12.1f} MB")
    print(f"  {'error_rate':26s} {tally.failed / max(tally.attempted, 1):12.4f}      "
          f"{tally.failed} of {tally.attempted} operations failed")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    print("digests " + json.dumps(res["digests"]))

    metrics: dict[str, dict] = {}
    if args.trace and res["layers"]:
        for name, unit in per_layer.items():
            metrics[name] = {"value": res["layers"][name], "unit": unit}
            print(f"  {name:44s} {res['layers'][name]:16.6f} {unit}")
    elif not args.trace and res["iterations"]:
        values = {"setup_s": statistics.median(named["setup_s"]),
                  "wall_s": statistics.median(named["wall_s"]),
                  "items_per_s": statistics.median(named[res["metric"]]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in end_to_end.items()}

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "named": named,
              "digests": res["digests"], "problems": tally.problems, "metrics": metrics}
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": tally.failed == 0 and bool(metrics),
                      "attempted": max(tally.attempted, 1), "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""mcrank benchmark: one workload, measured end to end or traced by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload reference --seed 7 --seconds 30 --trace 0

Workloads are ``reference``, ``unrated`` and ``rank_large`` (see
``bench/README.md``). ``--trace 0`` times untraced passes through the
public CLI with ``MCRANK_THREADS=1`` and reports the end-to-end
metrics, the times in reference seconds (see ``calibrate``); ``--trace 1`` runs one untraced pass and then one pass
through the same CLI path with every layer call traced, and reports the
per-layer metrics. The metric names and
units are those declared in ``BENCHMARK.json``. The last line of
standard output is the result object; the lines before it say the same
in words, with the counters and the environment. Inputs, reports and
the span file go to ``.bench_runs/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up repeats for at least this long (and at least 5 times): the host's
# speed shifts within a second, and one set-up takes 40-400 ms.
SETUP_SECONDS, SETUP_MIN_REPEATS, SETUP_MAX_REPEATS = 2.0, 5, 100
ORACLE_SAMPLE = 6  # candidate sets per traced evaluate run
MAX_PASSES = 10_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measurement budget; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_program() -> str | None:
    """Put the checkout's ``src`` first on the path; None if mcrank loads."""
    if not (SRC / "mcrank" / "__init__.py").is_file():
        return f"no mcrank sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import mcrank
    if Path(mcrank.__file__).resolve().parent != SRC / "mcrank":
        return f"imported mcrank from {mcrank.__file__}, not from {SRC}"
    return None


def environment() -> dict:
    import numpy
    cpus = os.cpu_count()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": cpus,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": f"MCRANK_THREADS=1 (the default would be cpu_count() = {cpus})"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_passes(wl, inputs, workdir, seconds: int):
    """Untraced passes until the next one would overrun ``seconds``.

    Returns each pass's ops, wall time, time in reference seconds (see
    ``calibrate``) and CPU time, and what the last pass kept.
    """
    import calibrate
    import workloads
    passes, walls, times, cpu_times, kept = [], [], [], [], []
    started = time.perf_counter()
    while len(passes) < MAX_PASSES:
        with calibrate.HostSpeed() as speed, workloads.pass_recorder(wl) as kept:
            t0, c0 = time.perf_counter(), time.process_time()
            ops = workloads.run_pass(wl, inputs, workdir)
            wall = time.perf_counter() - t0
            cpu_times.append(time.process_time() - c0)
        walls.append(wall)
        times.append(speed.to_reference(wall))
        passes.append(ops)
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            break
    return passes, walls, times, cpu_times, kept


def check_passes(wl, inputs, workdir, passes, seed: int) -> dict:
    """Gate every untraced op; returns the rank outputs' tied-pair counts."""
    import checks
    from workloads import RANK_METHODS, RANK_TOP_N, metric_label
    first = passes[0]
    for ops in passes[1:]:
        for op, ref in zip(ops, first):
            if op.exit_code == 0 and op.output != ref.output:
                op.fail(f"{op.label}: output differs from the first pass")
    pinned = checks.pinned_digest(wl.name, seed)
    if pinned is not None:
        for ops in passes:
            got = checks.digest(op.output for op in ops)
            if got != pinned:
                ops[0].fail(f"output digest {got} != pinned {pinned}")
    if wl.kind == "evaluate":
        report = workdir / "report.json"
        reasons = checks.report_failures(report) if report.exists() else []
        for ops in passes:
            for reason in reasons:
                ops[0].fail(reason)
        return {}
    expected, tied = {}, {}
    for label, _ in RANK_METHODS:
        text, count = checks.expected_rank_output(inputs, label, RANK_TOP_N)
        expected[label] = text.encode()
        tied[f"ranking.tied_pairs.{metric_label(label)}"] = count
    for ops in passes:
        for op in ops:
            if op.exit_code == 0 and op.output != expected[op.label]:
                op.fail(f"{op.label}: output differs from the reference scores")
    return tied


def untraced_run(wl, inputs, workdir, args):
    import workloads
    passes, walls, times, cpu_times, kept = time_passes(wl, inputs, workdir,
                                                        args.seconds)
    rss = peak_rss_mb()
    counters = check_passes(wl, inputs, workdir, passes, args.seed)
    if wl.kind == "evaluate":
        folds = wl.config["folds"]
        if len(kept) != folds:
            passes[-1][0].fail(
                f"the pipeline built candidates {len(kept)} times for {folds} "
                "folds; the benchmark's fold capture needs updating")
        rmse = workloads.heldout_rmse(kept) if kept else 0.0
        report = workdir / "report.json"
        ndcg10 = workloads.report_ndcg_at_10(report) if report.exists() else 0.0
        sizes = [n for _, _, fold_sizes, _ in kept for n in fold_sizes]
        methods = dict.fromkeys(["pr", *wl.config["methods"]])
        counters.update({
            "cands.sets": len(sizes), "cands.max": max(sizes, default=0),
            "cands.mean": sum(sizes) / len(sizes) if sizes else 0.0,
            "pipeline.users_skipped": sum(skipped for *_, skipped in kept),
            "ranking.pairs_scored": len(methods) * sum(n * (n - 1) for n in sizes)})
    else:
        output = next(op.output for op in passes[0]
                      if op.label == workloads.QUALITY_METHOD)
        rmse, ndcg10 = workloads.rank_quality(inputs, kept[0] if kept else {},
                                              output.decode())
        n = len(inputs.item_ids)
        counters.update({"cands.sets": len(inputs.user_ids), "cands.mean": n,
                         "cands.max": n, "ranking.pairs_scored": len(
                             workloads.RANK_METHODS) * len(inputs.user_ids) * n * (n - 1)})
    metrics = {"run_s": statistics.median(times), "peak_rss_mb": rss,
               "heldout_rmse": rmse, "ndcg_at_10": ndcg10}
    notes = {"run_count": len(times), "run_s_all": times, "wall_s_all": walls,
             "cpu_s_all": cpu_times}
    if len(times) >= 21:  # a percentile above the median with ten samples beyond it
        q = 100.0 * (len(times) - 10) / len(times)
        notes[f"run_s_p{q:.0f}"] = sorted(times)[len(times) - 11]
    return [op for ops in passes for op in ops], metrics, counters, notes


def traced_run(wl, inputs, workdir, args):
    import checks
    import numpy as np
    import traced
    import workloads
    t0 = time.perf_counter()
    ops = workloads.run_pass(wl, inputs, workdir)
    untraced_s = time.perf_counter() - t0
    check_passes(wl, inputs, workdir, [ops], args.seed)

    tracer = traced.Tracer(run_id=f"{wl.name}-seed{args.seed}")
    traced_ops = traced.traced_pass(tracer, wl, inputs, workdir)
    tracer.write(workdir / "trace.jsonl.gz")
    for op, ref in zip(traced_ops, ops):
        if op.exit_code == 0 and op.output != ref.output:
            op.fail(f"traced {op.label} output differs from the untraced pass")
    if wl.kind == "evaluate":
        sets = tracer.sample_sets
        rng = np.random.default_rng([args.seed, 2])
        picks = rng.choice(len(sets), size=min(ORACLE_SAMPLE, len(sets)), replace=False)
        labels = dict.fromkeys(["pr", "ar", "mr", "gd", "pg", *wl.config["methods"]])
        for reason in checks.oracle_failures(checks.load_naive(ROOT),
                                             [sets[i] for i in sorted(picks)],
                                             list(labels)):
            traced_ops[0].fail(reason)

    metrics = traced.layer_metrics(tracer)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_s
    notes = {"untraced_s": untraced_s, "spans": len(tracer.start)}
    return [*ops, *traced_ops], metrics, {}, notes


def result_metrics(declared: list[dict], values: dict, *, fill_zero: bool) -> dict:
    """Declared metrics in order; undeclared values are a benchmark bug."""
    names = {m["name"] for m in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(names - set(values))
    if missing and not fill_zero:
        raise KeyError(f"declared metrics not measured: {missing}")
    # a layer this workload bypasses did no work, so its figure is 0
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    args = parse_args(argv)
    # Serial pipeline: on a 2-CPU VM the default pool took 13.6-20.8 s on
    # one unrated input from process to process, the serial path 9.5-12 s.
    os.environ["MCRANK_THREADS"] = "1"
    spec_path = ROOT / "BENCHMARK.json"
    problem = None if spec_path.is_file() else f"{spec_path} is missing"
    problem = problem or import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import workloads  # bench/ is on the path as the script's directory
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_runs" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    import calibrate
    setup_times = []
    with calibrate.HostSpeed() as setup_speed:
        while len(setup_times) < SETUP_MAX_REPEATS and (
                len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_SECONDS):
            t0 = time.perf_counter()
            inputs = workloads.setup(wl, workdir, args.seed)
            setup_times.append(time.perf_counter() - t0)

    run = traced_run if args.trace else untraced_run
    ops, metrics, counters, notes = run(wl, inputs, workdir, args)
    failed = [op for op in ops if op.failures]
    if not args.trace:
        metrics["setup_s"] = setup_speed.to_reference(statistics.median(setup_times))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result_metrics(declared, metrics, fill_zero=bool(args.trace))

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"inputs: {wl.description['inputs']}")
    for name, v in values.items():
        print(f"  {name:<34} {v['value']:>14.6g} {v['unit']}")
    if not args.trace:
        print(f"  {'(run_s, setup_s as wall time)':<34} "
              f"{statistics.median(notes['wall_s_all']):>14.6g} s, "
              f"{statistics.median(setup_times):.6g} s")
    print(f"  {'failed_ratio':<34} {len(failed) / len(ops):>14.6g} ratio "
          f"({len(failed)} of {len(ops)} operations)")
    for op in failed:
        for reason in op.failures:
            print(f"  FAILED {reason}")
    print(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                      "environment": environment(), "description": wl.description,
                      "setup_s_all": setup_times, "counters": counters, **notes}))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layered benchmark for gmekit.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it puts ``src`` on the import
path and runs the CLI as ``python -m gmekit.cli``, so nothing needs to be
installed.  It pins BLAS/OpenMP to one thread for itself and every
subprocess.  One client runs the workload's tasks back to back (a closed
loop) until the tasks have been busy for S seconds, and checks every output
against an independent reference.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A fuller record, with the environment, per-kind latencies
and failures, goes to ``.bench_results/`` (and the spans of a traced run
next to it).  See ``benchmarks/README.md`` for the metrics.
"""

from __future__ import annotations

import os
import sys

THREADS = 1  # pinned BLAS/OpenMP thread count; never above nproc
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402  (imports no gmekit; workloads and probes do, so they wait for main)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_results")
SETUP_REPS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
WRONG_REFERENCE_SKEW = 1e-6
IMPORT_CHILD = "import time; t = time.perf_counter(); import gmekit; print(time.perf_counter() - t)"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--wrong-reference", action="store_true",
                   help="shift every reference value (self-test of the correctness gates)")
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": openblas,
        "seed": seed,
    }


def child_import_s(env: dict) -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_CHILD], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def set_up(workload_cls, env: dict, seed: int, skew: float):
    """Set up SETUP_REPS times: `import gmekit` in a fresh interpreter, then
    the workload's input generation and warm-up.  Returns the last workload
    and the per-repetition times."""
    reps, wl = [], None
    for _ in range(SETUP_REPS):
        if wl is not None:
            wl.close()
        imp = child_import_s(env)
        t0 = time.perf_counter()
        wl = workload_cls(seed, ROOT, skew)
        wl.prepare()
        wl.warm_up()
        reps.append({"import_s": imp, "prepare_warm_s": time.perf_counter() - t0})
    return wl, reps


def _check(task, out, error):
    """Failure reason of one task (None when it passed) and its best margin."""
    if error is not None:
        return error, None
    try:
        reason = task.check(out)
        margin = task.margin(out) if task.margin is not None and not reason else None
    except Exception:  # a check that cannot read the output fails the task
        return traceback.format_exc(limit=3), None
    return reason, margin


def timed_loop(wl, seconds: float, rec=None):
    """Run whole cycles until the tasks have been busy for `seconds`.  With a
    recorder, odd cycles run traced and even ones untraced.  Each output is
    checked as soon as its task returns, outside the timed call, and only
    the verdict is kept, so the benchmark's own memory stays flat."""
    records = []
    cycle = 0
    busy = 0.0
    wall0 = time.perf_counter()
    min_cycles = 2 if rec is not None else 1  # a traced run needs one cycle of each sort
    while (busy < seconds or cycle < min_cycles) and time.perf_counter() - wall0 < 3 * seconds + 30:
        tasks = wl.cycle(cycle)
        traced = rec is not None and cycle % 2 == 1
        if traced:
            rec.install()
        try:
            for task in tasks:
                root = rec.open(f"task.{task.kind}") if traced else None
                layer = rec.open(task.layer_span) if traced and task.layer_span else None
                out, error = None, None
                t0 = time.perf_counter()
                try:
                    out = task.run()
                except Exception:  # a failed task is counted, not fatal
                    error = traceback.format_exc(limit=3)
                dt = time.perf_counter() - t0
                if layer is not None:
                    rec.close(layer)
                if root is not None:
                    rec.close(root)
                busy += dt
                failure, margin = _check(task, out, error)
                records.append({"kind": task.kind, "latency": dt, "traced": traced,
                                "failure": failure, "margin": margin})
        finally:
            if traced:
                rec.uninstall()
        cycle += 1
    return records, cycle


def tail(latencies: list[float]):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it;
    with too few samples for that, the median."""
    v = sorted(latencies)
    idx = max(len(v) - TAIL_BEYOND - 1, len(v) // 2)
    return v[idx], 100.0 * (idx + 1) / len(v), len(v) - idx - 1


def end_to_end(wl, records, attempted, failed, setup_reps) -> tuple[dict, dict]:
    lat = [r["latency"] for r in records]
    tail_s, tail_pct, beyond = tail(lat)
    margins = [r["margin"] for r in records if r["margin"] is not None]
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.runs_children
                               else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": (statistics.median(r["import_s"] + r["prepare_warm_s"] for r in setup_reps), "s"),
        "tasks_per_s": (len(lat) / sum(lat), "1/s"),
        "task_p50_s": (statistics.median(lat), "s"),
        "task_tail_s": (tail_s, "s"),
        "success_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MiB"),
        "search_best_margin": (statistics.fmean(margins) if margins else float("nan"), "margin"),
    }
    notes = {"task_tail_s": {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(lat)},
             "search_best_margin": {"tasks": len(margins)}}
    return metrics, notes


def per_layer(records, rec) -> dict:
    def rate(traced):
        lat = [r["latency"] for r in records if r["traced"] == traced]
        return len(lat) / sum(lat) if lat else float("nan")

    metrics = {}
    for key, value in {**tracing.layer_metrics(rec.spans), **tracing.probe_metrics(rec.spans)}.items():
        unit = ("count" if key.endswith((".calls", "_evals", "per_call")) else
                "ms" if key.endswith("_ms") else
                "s" if key.endswith("_s") else "frac")
        metrics[key] = (value, unit)
    metrics["trace.overhead_frac"] = (rate(False) / rate(True) - 1.0, "frac")
    return metrics


def per_kind(records) -> dict:
    kinds: dict[str, list[float]] = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r["latency"])
    return {k: {"n": len(v), "median_s": statistics.median(v)} for k, v in kinds.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gmekit", "__init__.py")):
        print(f"error: no gmekit source tree at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import gmekit  # noqa: F401  (timed here; setup_s times it in fresh interpreters)

    main_import_s = time.perf_counter() - t0
    if not os.path.abspath(gmekit.__file__).startswith(SRC + os.sep):
        print(f"error: imported gmekit from {gmekit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import probes
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    skew = WRONG_REFERENCE_SKEW if args.wrong_reference else 0.0

    wl, setup_reps = set_up(workloads.WORKLOADS[args.workload], workloads.child_env(ROOT),
                            args.seed, skew)
    rec = tracing.Recorder() if args.trace else None
    try:
        records, cycles = timed_loop(wl, args.seconds, rec)
        failures = [f"{r['kind']}: {r['failure']}" for r in records if r["failure"]]
        attempted = len(records)
        extra = wl.recheck()
        if rec is not None:
            probes.layer_probe(rec, args.seed)
            probes.size_probe(rec, args.seed)
            extra += probes.cli_probe(rec, args.seed, ROOT)
        attempted += len(extra)
        failures += [f for f in extra if f]
    finally:
        wl.close()
    failed = len(failures)

    if rec is not None:
        metrics = per_layer(records, rec)
        notes = {"nesting_problems": tracing.check_nesting(rec.spans)[:20], "spans": len(rec.spans),
                 "traced_tasks": sum(r["traced"] for r in records)}
        spans_path = os.path.join(RESULTS, f"{args.workload}_seed{args.seed}_spans.jsonl.gz")
        rec.write(spans_path)
    else:
        metrics, notes = end_to_end(wl, records, attempted, failed, setup_reps)

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "cycles": cycles, "attempted": attempted, "failed": failed,
        "failures": failures[:20],
        "main_import_s": main_import_s, "setup_reps": setup_reps,
        "per_kind": per_kind(records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }
    path = os.path.join(RESULTS, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)

    for key, (value, unit) in metrics.items():
        extra = notes.get(key, "")
        print(f"{args.workload} {key} = {value:.6g} {unit} {json.dumps(extra) if extra else ''}".rstrip())
    for failure in failures[:5]:
        print(f"FAILED {failure.strip().splitlines()[-1]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

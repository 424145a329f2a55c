"""Alternating parent/change benchmark pairs, summarised into BENCH_<topic>.json.

    python3 tools/bench_pairs.py --topic NAME [--parent REV] [--pairs N]
        [--workloads W ...] [--cli "ARGS" ...] [--importtime N]

The parent is the committed tree of REV (default HEAD), extracted with
``git archive`` into a temporary directory; the change is this checkout's
working tree as it stands.  Each side runs ``benchmarks/run.py`` from its
own root for the benchmark's 20 s, one process at a time.  Pair k uses
seed k; the parent runs first on odd seeds and the change first on even
seeds, so drift in the host's speed falls on both sides alike.

``--cli`` times ``python -m gmekit.cli ARGS --seed N`` for seeds 21-26 as a
subprocess on both sides, alternating in the same way, and keeps
``max_margin`` and ``violations`` when the output is a soundness report.
``--importtime N`` runs N alternating ``python -X importtime -c "import
gmekit"`` pairs and keeps the cumulative time of the gmekit line.

``--inprocess N`` times every ``operator_search`` and ``noisy_certify`` task
kind in one process, interleaved: the parent's ``src/gmekit`` is imported as
the package ``gmekit_parent`` beside this checkout's ``gmekit``, and
``benchmarks/workloads.py`` is loaded once per side with its gmekit modules
bound to that side.  Round k runs cycle k of workload seed 1 on both sides,
kind by kind, the parent first on even k; the file keeps each kind's
median per side and the rounds the change won.  Host drift between
processes does not enter these numbers.

Each run writes the output file afresh.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 20  # BENCHMARK.json's run_seconds, the same on both sides
CLI_SEEDS = range(21, 27)
INPROCESS_WORKLOADS = ("operator_search", "noisy_certify")
INPROCESS_SEED = 1


def extract(rev: str, dest: str) -> str:
    """The committed files of ``rev``, unpacked under ``dest``."""
    archive = os.path.join(dest, "parent.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", ROOT, "archive", rev], stdout=fh, check=True)
    tree = os.path.join(dest, "parent")
    with tarfile.open(archive) as tar:
        tar.extractall(tree)  # our own git archive, so no member filter
    os.remove(archive)
    return tree


def order(seed: int) -> list[str]:
    return ["parent", "change"] if seed % 2 else ["change", "parent"]


def child_env(tree: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    return env


def run_workload(tree: str, workload: str, seed: int) -> dict:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(tree, ".bench_results", f"{workload}_seed{seed}_trace0.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    return {
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {k: v["value"] for k, v in last["metrics"].items()},
        "per_kind_median_s": {k: v["median_s"] for k, v in record["per_kind"].items()},
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "rel_iqr": (q3 - q1) / median if median else 0.0}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    seeds = sorted({r["seed"] for r in runs})
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        side = {s: {r["seed"]: r["metrics"][name] for r in runs
                    if r["side"] == s and name in r["metrics"]}
                for s in ("parent", "change")}
        pairs = [(side["parent"][k], side["change"][k]) for k in seeds
                 if k in side["parent"] and k in side["change"]]
        if not pairs:
            continue
        parent, change = spread([p for p, _ in pairs]), spread([c for _, c in pairs])
        better = [(c < p) if lower else (c > p) for p, c in pairs if c != p]
        summary[name] = {
            "better": spec["better"], "bound": spec["bound"], "parent": parent, "change": change,
            "change_over_parent": change["median"] / parent["median"] if parent["median"] else None,
            "change_wins": sum(better), "change_losses": len(better) - sum(better),
            "pairs": len(pairs),
        }
    return summary


def per_kind(runs: list[dict]) -> dict:
    kinds = {k for r in runs for k in r["per_kind_median_s"]}
    return {k: {s: statistics.median(r["per_kind_median_s"][k] for r in runs
                                     if r["side"] == s and k in r["per_kind_median_s"])
                for s in ("parent", "change")}
            for k in sorted(kinds)}


def time_cli(tree: str, args: list[str], seed: int) -> dict:
    argv = [sys.executable, "-m", "gmekit.cli", *args, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, env=child_env(tree), capture_output=True, text=True)
    out = {"wall_s": round(time.perf_counter() - t0, 4), "exit": proc.returncode}
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return out
    if isinstance(doc, dict):
        out.update({k: doc[k] for k in ("max_margin", "violations") if k in doc})
    return out


def import_ms(tree: str) -> float:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gmekit"], cwd=tree,
                          env=child_env(tree), capture_output=True, text=True, check=True)
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "gmekit":
            return int(fields[1]) / 1000
    raise RuntimeError("no gmekit line in -X importtime output")


def load_workloads(name: str, package: str):
    """``benchmarks/workloads.py`` as module ``name``, its gmekit modules
    taken from ``package``."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "benchmarks", "workloads.py"))
    mod = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    for attr in ("downconv", "search", "states", "witness"):
        setattr(mod, attr, importlib.import_module(f"{package}.{attr}"))
    return mod


def inprocess(parent_tree: str, tmp: str, rounds: int) -> dict:
    """Per workload and kind: each side's median task time and the rounds
    the change won, timed interleaved in this process."""
    shutil.copytree(os.path.join(parent_tree, "src", "gmekit"),
                    os.path.join(tmp, "inproc", "gmekit_parent"))
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks"),
                    os.path.join(tmp, "inproc")]
    sides = {"parent": load_workloads("workloads_parent", "gmekit_parent"),
             "change": load_workloads("workloads_change", "gmekit")}
    out = {}
    for workload in INPROCESS_WORKLOADS:
        runs = {side: mod.WORKLOADS[workload](INPROCESS_SEED, ROOT) for side, mod in sides.items()}
        for run in runs.values():
            run.prepare()
            run.warm_up()
        times = {side: {} for side in runs}
        failed = {side: 0 for side in runs}
        for k in range(rounds):
            cycles = {side: run.cycle(k) for side, run in runs.items()}
            for i, kind in enumerate(t.kind for t in cycles["change"]):
                for side in order(k + 1):
                    task = cycles[side][i]
                    t0 = time.perf_counter()
                    result = task.run()
                    times[side].setdefault(kind, []).append(time.perf_counter() - t0)
                    failed[side] += task.check(result) is not None
        for run in runs.values():
            run.close()
        kinds = {}
        for kind, parent in times["parent"].items():
            change = times["change"][kind]
            p_ms, c_ms = (1e3 * statistics.median(t) for t in (parent, change))
            kinds[kind] = {"parent_median_ms": p_ms, "change_median_ms": c_ms,
                           "change_over_parent": c_ms / p_ms,
                           "change_wins": sum(c < p for p, c in zip(parent, change))}
        out[workload] = {"rounds": rounds, "failed_tasks": failed, "kinds": kinds,
                         "sum_of_medians_ms": {
                             side: sum(k[f"{side}_median_ms"] for k in kinds.values())
                             for side in ("parent", "change")}}
        print(f"in-process {workload}: sum of medians "
              f"{out[workload]['sum_of_medians_ms']}", file=sys.stderr)
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--topic", required=True)
    p.add_argument("--parent", default="HEAD")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads", nargs="*", default=[])
    p.add_argument("--cli", action="append", default=[],
                   help="gme arguments, one string per command")
    p.add_argument("--importtime", type=int, default=0)
    p.add_argument("--inprocess", type=int, default=0,
                   help="rounds of in-process interleaved timing per task kind")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    out_path = os.path.join(ROOT, f"BENCH_{args.topic}.json")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    doc = {"topic": args.topic, "method": {}, "workloads": {}, "extra": {}}
    parent_rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", args.parent],
                                capture_output=True, text=True, check=True).stdout.strip()
    seeds = list(range(1, args.pairs + 1))
    if args.workloads:
        doc["method"] = {
            "command": "python3 benchmarks/run.py --workload W --seed N "
                       f"--seconds {SECONDS} --trace 0",
            "seeds": seeds,
            "order": "per seed and workload, parent first on odd seeds and change first "
                     "on even seeds",
            "parent": f"{parent_rev} (committed files, extracted with git archive)",
            "change": "the working tree of this checkout",
            "host": f"{os.cpu_count()} vCPU, Python {sys.version.split()[0]}, "
                    "one benchmark process at a time",
            "wins": "a pair counts as a change win when the change's metric is better in the "
                    "metric's own direction; ties count for neither",
        }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": extract(args.parent, tmp), "change": ROOT}
        for workload in args.workloads:
            runs = []
            for seed in seeds:
                for first, side in enumerate(order(seed)):
                    run = run_workload(trees[side], workload, seed)
                    runs.append({"seed": seed, "side": side, "ran_first": first == 0, **run})
                    print(f"{workload} seed {seed} {side}: tasks_per_s "
                          f"{run['metrics'].get('tasks_per_s', float('nan')):.4g}", file=sys.stderr)
            doc["workloads"][workload] = {"runs": runs, "summary": summarise(runs, metrics),
                                          "per_kind_median_s": per_kind(runs)}
        for cli in args.cli:
            cli_args = cli.split()
            walls = {"parent": [], "change": []}
            results = []
            for seed in CLI_SEEDS:
                for side in order(seed):
                    res = time_cli(trees[side], cli_args, seed)
                    walls[side].append(res["wall_s"])
                    results.append({"seed": seed, "side": side, **res})
            doc["extra"]["cli " + cli] = {
                "command": f"python -m gmekit.cli {cli} --seed N",
                "seeds": list(CLI_SEEDS), "order": "parent first on odd seeds",
                "runs": results,
                "parent_median_wall_s": statistics.median(walls["parent"]),
                "change_median_wall_s": statistics.median(walls["change"]),
            }
        if args.importtime:
            times = {"parent": [], "change": []}
            for k in range(args.importtime):
                for side in order(k + 1):
                    times[side].append(import_ms(trees[side]))
            doc["extra"]["import_gmekit_cumulative_ms"] = {
                "command": "python -X importtime -c 'import gmekit' "
                           "(cumulative time of the gmekit line, in ms)",
                "pairs": args.importtime, "order": "alternating which side runs first",
                "parent": spread(times["parent"]), "change": spread(times["change"]),
                "change_faster_in": sum(c < p for p, c in zip(times["parent"], times["change"])),
            }
        if args.inprocess:
            doc["inprocess"] = {
                "method": f"benchmarks/workloads.py task kinds, cycles 0-{args.inprocess - 1} "
                          f"of seed {INPROCESS_SEED}, the parent ({parent_rev}) imported as "
                          "gmekit_parent beside this checkout's gmekit in one process; per "
                          "round, kind by kind, the parent first on even rounds",
                "workloads": inprocess(trees["parent"], tmp, args.inprocess),
            }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

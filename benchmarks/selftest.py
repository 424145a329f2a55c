"""The benchmark's own tests, in a short mode (one-second runs).

    python3 benchmarks/selftest.py

Run from the root of a source checkout.  Checks that

1. every workload in BENCHMARK.json prints, as its last stdout line, the
   result object with every end-to-end metric (``--trace 0``) or every
   per-layer metric (``--trace 1``) under its declared unit, and passes
   its correctness gates;
2. a deliberately wrong reference value (``--wrong-reference``) makes
   ``success_frac`` fall below 1 and ``correct`` false;
3. the spans of a traced run nest, each has a task or probe root, and every
   traced task has its own root span with layer spans inside;
4. in a directory that holds only BENCHMARK.json and the benchmark, the
   benchmark exits non-zero without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import check_nesting  # noqa: E402

SEED = 7
SHORT_SECONDS = "1"


def run(workload: str, trace: int, *extra: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", SHORT_SECONDS, "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, sorted(doc)
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert isinstance(doc["failed"], int)
    return doc


def check_emits(spec: dict, workload: str, trace: int) -> None:
    doc = last_json(run(workload, trace))
    assert doc["correct"] and doc["failed"] == 0, doc
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = doc["metrics"]
    assert set(got) == set(wanted), (workload, trace, set(got) ^ set(wanted))
    for name, unit in wanted.items():
        value = got[name]["value"]
        assert got[name]["unit"] == unit, (workload, name, got[name]["unit"], unit)
        assert isinstance(value, (int, float)) and math.isfinite(value), (workload, name, value)
    if not trace:
        for name in wanted:
            assert got[name]["value"] != 0, f"{workload}: end-to-end metric {name} is 0"


def check_wrong_reference(workload: str) -> None:
    doc = last_json(run(workload, 0, "--wrong-reference"))
    assert not doc["correct"] and doc["failed"] > 0, (workload, doc)
    assert doc["metrics"]["success_frac"]["value"] < 1.0, (workload, doc["metrics"])


def check_spans(workload: str) -> None:
    result = os.path.join(ROOT, ".bench_results", f"{workload}_seed{SEED}_trace1.json")
    with open(result, encoding="utf-8") as fh:
        notes = json.load(fh)["notes"]
    with gzip.open(os.path.join(ROOT, ".bench_results", f"{workload}_seed{SEED}_spans.jsonl.gz"),
                   "rt", encoding="utf-8") as fh:
        spans = [[d["name"], d["start"], d["end"], d["parent"], d["tag"]]
                 for d in map(json.loads, fh)]
    problems = check_nesting(spans)
    assert not problems, (workload, problems[:5])
    task_roots = [s for s in spans if s[0].startswith("task.") and s[3] == -1]
    assert notes["traced_tasks"] >= 1 and len(task_roots) == notes["traced_tasks"], (
        workload, len(task_roots), notes["traced_tasks"])


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".bench_results", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("fock_sweep", 0, cwd=bare)
        assert proc.returncode != 0, "benchmark succeeded without a source tree"
        assert not proc.stdout.strip(), f"printed output without a source tree: {proc.stdout!r}"
    finally:
        shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            check_emits(spec, workload, trace)
            print(f"ok  {workload} --trace {trace}: every metric emitted with its unit", flush=True)
        check_spans(workload)
        print(f"ok  {workload}: spans nest and cover each traced task", flush=True)
        check_wrong_reference(workload)
        print(f"ok  {workload}: a wrong reference is reported as failed tasks", flush=True)
    check_bare_directory()
    print("ok  without a source tree the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())

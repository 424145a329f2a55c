"""Spans around gmekit's public calls, recorded from outside the package.

Modules import functions by name (``from .witness import kron_all``), so a
wrapper only sees a call if it replaces the name the *caller* looks up:
``gmekit.downconv.tripartite_dagger`` for the down-conversion witness,
``gmekit.search.evaluate_condition`` for the optimizer's objective, and so
on.  ``WRAPS`` lists every such name.  Wrappers are installed only in the
traced cycles of a traced run and removed after each, so untraced cycles
run the program's own functions.

Spans are kept in memory (name, start, end, parent, tag) and written out
when the run ends.  A span's self time is its duration minus that of its
direct children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import time
from collections import defaultdict
from statistics import median

# (module, name the caller looks up, span name)
WRAPS = (
    ("gmekit.witness", "evaluate_condition", "witness.evaluate_condition"),
    ("gmekit.search", "evaluate_condition", "witness.evaluate_condition"),
    ("gmekit.witness", "bipartite_dagger", "witness.evaluator"),
    ("gmekit.witness", "bipartite_product", "witness.evaluator"),
    ("gmekit.witness", "tripartite_dagger", "witness.evaluator"),
    ("gmekit.witness", "tripartite_product", "witness.evaluator"),
    ("gmekit.witness", "quadripartite_dagger", "witness.evaluator"),
    ("gmekit.downconv", "tripartite_dagger", "witness.evaluator"),
    ("gmekit.witness", "noise_threshold", "witness.threshold"),
    ("gmekit.witness", "noise_margin_curve", "witness.margin_curve"),
    ("gmekit.witness", "kron_all", "linalg.kron_all"),
    ("gmekit.operators", "kron_all", "linalg.kron_all"),
    ("gmekit.witness", "white_noise_mix", "states.white_noise_mix"),
    ("gmekit.states", "white_noise_mix", "states.white_noise_mix"),
    ("gmekit.states", "random_biseparable", "states.random_biseparable"),
    ("gmekit.downconv", "sweep_rows", "downconv.sweep_rows"),
    ("gmekit.downconv", "time_series", "downconv.time_series"),
    ("gmekit.downconv", "to_pure_state", "downconv.to_pure_state"),
    ("gmekit.downconv", "witness", "downconv.witness"),
    ("gmekit.downconv", "block_sum", "operators.block_sum"),
    ("gmekit.search", "optimize", "search.optimize"),
)

CLI_COMMANDS = ("evaluate", "scan-noise", "soundness", "downconv", "optimize")
PROBE_PURE_N = (4, 8, 12, 16)
PROBE_DENSITY = ("2x2x2", "4x4x4", "3x3x3x3", "4x4x4x4")


class Recorder:
    """In-memory spans: [name, start, end, parent index or -1, tag]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, tag])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        assert popped == idx, "spans closed out of order"

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        idx = self.open(name, tag)
        try:
            yield
        finally:
            self.close(idx)

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name):
        rec = self
        if name == "downconv.time_series":  # a generator: time each step of it

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = rec.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        rec.close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = None
            if name == "witness.evaluator":
                tag = "density" if hasattr(args[0], "matrix") else "pure"
            idx = rec.open(name, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)

        return wrapper

    def install(self) -> None:
        assert not self._saved, "wrappers already installed"
        for modname, attr, name in WRAPS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, tag in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "tag": tag}) + "\n")


# --- per-layer metrics -----------------------------------------------------------


def _root(spans, i: int) -> int:
    while spans[i][3] >= 0:
        i = spans[i][3]
    return i


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times from the spans of traced tasks and the
    layer probe.  Spans under ``probe.size`` and ``probe.cli`` roots feed
    their own metrics in ``probe_metrics``."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_sum = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_sum[s[3]] += dur[i]
    roots = [_root(spans, i) for i in range(n)]
    keep = [not spans[roots[i]][0].startswith(("probe.size", "probe.cli")) for i in range(n)]

    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    for i, (name, _, _, _, tag) in enumerate(spans):
        if not keep[i]:
            continue
        for key in (name, f"{name}.{tag}") if tag else (name,):
            calls[key] += 1
            total[key] += dur[i]
            self_t[key] += dur[i] - child_sum[i]

    def under(i: int, name: str) -> int:
        """Index of the nearest ancestor span called name, or -1."""
        p = spans[i][3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        return p

    thr_evals = sum(1 for i, s in enumerate(spans)
                    if keep[i] and s[0] == "witness.evaluator" and under(i, "witness.threshold") >= 0)
    objective = [i for i, s in enumerate(spans)
                 if keep[i] and s[0] == "witness.evaluate_condition"
                 and s[3] >= 0 and spans[s[3]][0] == "search.optimize"]

    def mean_ms(key):
        return 1e3 * total[key] / calls[key] if calls[key] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    witness_self = sum(v for k, v in self_t.items()
                       if k.startswith("witness.") and k.count(".") == 1)
    return {
        "witness.calls": calls["witness.evaluator"],
        "witness.self_s": witness_self,
        "witness.pure.mean_ms": mean_ms("witness.evaluator.pure"),
        "witness.density.mean_ms": mean_ms("witness.evaluator.density"),
        "linalg.kron_all.calls": calls["linalg.kron_all"],
        "linalg.kron_all.self_s": self_t["linalg.kron_all"],
        "witness.threshold.calls": calls["witness.threshold"],
        "witness.threshold.self_s": self_t["witness.threshold"],
        "witness.threshold.evals_per_call": ratio(thr_evals, calls["witness.threshold"]),
        "states.white_noise_mix.calls": calls["states.white_noise_mix"],
        "states.white_noise_mix.self_s": self_t["states.white_noise_mix"],
        "states.random_biseparable.calls": calls["states.random_biseparable"],
        "states.random_biseparable.self_s": self_t["states.random_biseparable"],
        "downconv.time_series.self_s": self_t["downconv.time_series"],
        "downconv.to_pure_state.self_s": self_t["downconv.to_pure_state"],
        "operators.block_sum.calls": calls["operators.block_sum"],
        "operators.block_sum.self_s": self_t["operators.block_sum"],
        "search.optimize.calls": calls["search.optimize"],
        "search.optimize.self_s": self_t["search.optimize"],
        "search.objective_evals": len(objective),
        "search.witness_share": ratio(sum(dur[i] for i in objective), total["search.optimize"]),
    }


def probe_metrics(spans: list[list]) -> dict[str, float]:
    """Size-scaling and CLI metrics from the ``probe.size`` and ``cli.*`` spans."""
    out = {}
    by_name: dict[str, list[float]] = defaultdict(list)
    for name, start, end, _, _ in spans:
        by_name[name].append(end - start)
    for n in PROBE_PURE_N:
        out[f"witness.probe.pure_N{n}_ms"] = 1e3 * median(by_name[f"probe.size.pure_N{n}"])
    for label in PROBE_DENSITY:
        out[f"witness.probe.density_{label}_ms"] = 1e3 * median(by_name[f"probe.size.density_{label}"])
    interp = median(by_name["cli.interpreter"])
    import_s = median(by_name["cli.import"]) - interp
    walls = {c: median(by_name[f"cli.{c}"]) for c in CLI_COMMANDS}
    out["cli.interpreter_s"] = interp
    out["cli.import_s"] = import_s
    out["cli.import_share"] = import_s / (sum(walls.values()) / len(walls))
    for c in CLI_COMMANDS:
        out[f"cli.{c}.wall_s"] = walls[c]
    return out


def check_nesting(spans: list[list]) -> list[str]:
    """Every span lies inside its parent, every span belongs to a task or a
    probe root, and every traced task has at least one layer span inside."""
    problems = []
    has_child = set()
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} ({name}) is not closed")
            continue
        if parent >= 0:
            has_child.add(parent)
            p = spans[parent]
            if not (p[1] <= start and end <= p[2]):
                problems.append(f"span {i} ({name}) is not inside its parent {p[0]}")
        elif not name.startswith(("task.", "probe.")):
            problems.append(f"span {i} ({name}) has no task or probe root")
    for i, s in enumerate(spans):
        if s[0].startswith("task.") and i not in has_child:
            problems.append(f"task span {i} ({s[0]}) covers no layer span")
    return problems

"""Probes that run only in a traced run, after the timed loop.

* The layer probe makes one small call into every in-process layer, so that
  every per-layer metric is measured in every traced run, whichever
  workload it is.
* The size probe times one evaluator call per state size: pure (N+1)^3
  down-conversion states, where the einsum contraction cliff shows, and
  seeded density matrices from 2x2x2 to 4x4x4x4.  Small sizes are repeated
  to fill about 0.2 s; N = 16 (about a second per call at the time this
  probe was written) runs once, which bounds the probe.
* The CLI probe times a bare interpreter, `import gmekit`, and each CLI
  subcommand once as a subprocess.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np

import oracle
from gmekit import downconv, operators, search, states, witness
from tracing import PROBE_DENSITY, PROBE_PURE_N, Recorder
from workloads import CliBatch, child_env, rank_one, seeded_rng

PROBE_CYCLE = 2**32 - 2
SIZE_PROBE_FILL_S = 0.2
SIZE_PROBE_MAX_REPS = 20
CLI_STARTUP_REPS = 3


def layer_probe(rec: Recorder, seed: int) -> None:
    rng = seeded_rng(seed, PROBE_CYCLE)
    flip = states.PureState((2, 2, 2), oracle.flip_pair(3, 2 * np.pi * rng.random()))
    ops = oracle.lowering_ops((2, 2, 2))
    noisy = states.white_noise_mix(flip, 0.85)
    parts = states.all_bipartitions(3)
    rec.install()
    try:
        with rec.span("probe.layers"):
            downconv.sweep_rows(downconv.DownConversionParams(4), [0.1, 0.2])
            witness.noise_threshold(flip, ops, "tri-dagger")
            rho = states.random_biseparable((2, 2, 2), parts, len(parts), int(rng.integers(2**31)))
            witness.evaluate_condition("tri-dagger", rho, [rank_one(rng, 2) for _ in range(3)])
            search.optimize(noisy, "tri-dagger", restarts=1, budget=30, seed=seed)
    finally:
        rec.uninstall()


def _time_calls(rec: Recorder, name: str, call) -> None:
    with rec.span(name):
        call()
    first = rec.spans[-1][2] - rec.spans[-1][1]
    for _ in range(min(SIZE_PROBE_MAX_REPS, int(SIZE_PROBE_FILL_S / max(first, 1e-9)))):
        with rec.span(name):
            call()


def size_probe(rec: Recorder, seed: int) -> None:
    rng = seeded_rng(seed, PROBE_CYCLE, 1)
    for n_pump in PROBE_PURE_N:
        params = downconv.DownConversionParams(n_pump, coupling=0.9 + 0.2 * rng.random())
        amps = next(downconv.time_series(params, [0.3]))
        state = downconv.to_pure_state(amps)
        ops = operators.block_sum(n_pump)
        _time_calls(rec, f"probe.size.pure_N{n_pump}",
                    lambda: witness.tripartite_dagger(state, *ops))
    for label in PROBE_DENSITY:
        dims = tuple(int(d) for d in label.split("x"))
        d = int(np.prod(dims))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        state = states.DensityMatrix(dims, rho / np.trace(rho).real)
        ops = [rank_one(rng, k) for k in dims]
        fn = witness.tripartite_dagger if len(dims) == 3 else witness.quadripartite_dagger
        _time_calls(rec, f"probe.size.density_{label}", lambda: fn(state, *ops))


def cli_probe(rec: Recorder, seed: int, root: str) -> list[str | None]:
    """Times start-up and each subcommand.  Returns one entry per
    subcommand: None when its output passed its check, else the reason."""
    env = child_env(root)
    results = []
    with rec.span("probe.cli"):
        for code, name in (("pass", "cli.interpreter"), ("import gmekit", "cli.import")):
            for _ in range(CLI_STARTUP_REPS):
                with rec.span(name):
                    subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                                   check=True, timeout=120)
        wl = CliBatch(seed, root)
        wl.prepare()
        try:
            for task in wl.cycle(PROBE_CYCLE):
                with rec.span(task.layer_span):
                    out = task.run()
                reason = task.check(out)
                results.append(f"cli probe {task.kind}: {reason}" if reason else None)
        finally:
            wl.close()
    return results

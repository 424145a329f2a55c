"""The four closed-loop workloads.

Each workload is one client in one process that waits for every result
before it sends the next request, as a script or a shell pipeline does.
Tasks come in cycles: cycle ``i`` holds one task of every kind, with inputs
drawn from ``SeedSequence(seed, spawn_key=(i,))``, so the same seed gives
the same inputs and no two cycles repeat an input.  Within a cycle each kind
has its own cost, and the cycle length is odd, so the median latency sits
inside one kind's group rather than on the edge between two.

A task's output is checked as soon as the task returns, outside its timed
call, against ``oracle``, which shares no code with the path being timed.
``skew`` shifts every reference value; the benchmark's self-test uses it to
show that a wrong reference is reported as failed tasks.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracle
from gmekit import downconv, search, states, witness
from tracing import CLI_COMMANDS

TOL = 1e-10  # gmekit's default violation tolerance, which every task uses
WARM_UP_CYCLE = 2**32 - 1  # a cycle index the timed loop never reaches


@dataclass
class Task:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    """Returns None when the output matches its reference, else the reason."""
    margin: Callable[[Any], float] | None = None
    """Best margin the task found, for search_best_margin; None if it is not a scan."""
    layer_span: str | None = None
    """Span recorded around the call in traced cycles, for tasks that run
    gmekit in a subprocess where no in-process wrapper can see it."""


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def rank_one(rng: np.random.Generator, dim: int) -> np.ndarray:
    return np.outer(_haar(rng, dim), _haar(rng, dim).conj())


def _noisy_matrix(psi: np.ndarray, s: float) -> np.ndarray:
    d = psi.shape[0]
    return s * np.outer(psi, psi.conj()) + (1.0 - s) / d * np.eye(d)


def _first_failure(checks) -> str | None:
    return next((msg for ok, msg in checks if not ok), None)


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()
    runs_children = False
    """True when the tasks run gmekit in subprocesses, whose memory counts."""

    def __init__(self, seed: int, root: str, skew: float = 0.0):
        self.seed = seed
        self.root = root
        self.skew = skew

    def prepare(self) -> None:
        """Input generation that the whole run shares."""

    def warm_up(self) -> None:
        """First calls of every path the tasks take, before timing starts."""

    def cycle(self, index: int) -> list[Task]:
        raise NotImplementedError

    def recheck(self) -> list[str | None]:
        """Checks that run some tasks again: one entry per rechecked task,
        None when it passed, else the reason."""
        return []

    def close(self) -> None:
        pass


# --- fock_sweep ---------------------------------------------------------------


class FockSweep(Workload):
    """Down-conversion sweeps: the pure-state contraction in witness."""

    name = "fock_sweep"
    kinds = ("N4", "N8", "N12")
    POINTS = 4
    T_STEP = 0.15

    def _task(self, n_pump: int, rng: np.random.Generator) -> Task:
        coupling = 0.9 + 0.2 * rng.random()
        omegas = tuple(0.1 * rng.random(3))
        times = [0.05 + 0.1 * rng.random() + self.T_STEP * k for k in range(self.POINTS)]
        params = downconv.DownConversionParams(n_pump, *omegas, coupling=coupling)
        header = ["t"] + [f"prob_{n}" for n in range(n_pump + 1)] + ["witness_lhs", "violated"]

        def check(out):
            got_header, rows = out
            if got_header != header or len(rows) != len(times):
                return "sweep returned the wrong columns or row count"
            for t, row in zip(times, rows):
                c = oracle.downconv_amplitudes(n_pump, coupling, omegas, t)
                probs = np.array(row[1:-2], dtype=float)
                lhs_ref = oracle.even_pair_lhs(c) + self.skew
                failure = _first_failure([
                    (row[0] == t, f"row time {row[0]} != {t}"),
                    (abs(probs.sum() - 1.0) <= 1e-12, f"populations sum to {probs.sum()!r}"),
                    (np.max(np.abs(probs - np.abs(c) ** 2)) <= 1e-10, "populations off reference"),
                    (abs(row[-2] - lhs_ref) <= 1e-12,
                     f"N={n_pump} t={t}: witness_lhs {row[-2]!r} != |even pair sum| {lhs_ref!r}"),
                    (row[-1] == (lhs_ref > TOL) or abs(lhs_ref - TOL) < 1e-12, "verdict off reference"),
                ])
                if failure:
                    return failure
            return None

        return Task(
            kind=f"N{n_pump}",
            run=lambda: downconv.sweep_rows(params, times),
            check=check,
            margin=lambda out: max(row[-2] for row in out[1]),
        )

    def warm_up(self) -> None:
        downconv.sweep_rows(downconv.DownConversionParams(4), [0.1, 0.2])

    def cycle(self, index: int) -> list[Task]:
        rng = seeded_rng(self.seed, index)
        return [self._task(n, rng) for n in (4, 8, 12)]


# --- noisy_certify --------------------------------------------------------------


class NoisyCertify(Workload):
    """Verdicts on density matrices: validation, the Kronecker density path
    and the grid-and-bisect threshold."""

    name = "noisy_certify"
    kinds = ("thr-tri", "thr-quad", "curve-tri", "curve-quad",
             "eval-4x4x4", "eval-4x4x4x4", "soundness")
    CURVE = np.linspace(0.0, 1.0, 41)
    SOUNDNESS_DIMS = ((2, 2, 2), (2, 2, 2, 2), (3, 3, 3, 3))
    SOUNDNESS_TRIALS = 3

    @staticmethod
    def _condition(n: int) -> str:
        return "tri-dagger" if n == 3 else "quad-dagger"

    def _flip(self, n: int, rng):
        psi = oracle.flip_pair(n, 2 * np.pi * rng.random())
        return psi, states.PureState((2,) * n, psi), oracle.lowering_ops((2,) * n)

    def _threshold(self, n: int, rng) -> Task:
        _, state, ops = self._flip(n, rng)
        ref = (oracle.TRI_FLIP_THRESHOLD if n == 3 else oracle.QUAD_FLIP_THRESHOLD) + self.skew

        def check(thr):
            if thr is None or abs(thr - ref) > 1e-9:
                return f"{n}-qubit flip-pair threshold {thr!r} != {ref!r}"
            return None

        return Task(f"thr-{'tri' if n == 3 else 'quad'}",
                    lambda: witness.noise_threshold(state, ops, self._condition(n)), check)

    def _curve(self, n: int, rng) -> Task:
        psi, state, ops = self._flip(n, rng)
        cond = self._condition(n)

        def check(reports):
            if len(reports) != len(self.CURVE):
                return "margin curve has the wrong length"
            refs = oracle.noisy_margins(psi, cond, ops, self.CURVE) + self.skew
            for s, rep, ref in zip(self.CURVE, reports, refs):
                if abs(rep.margin - ref) > 1e-12:
                    return f"{cond} margin at s={s} is {rep.margin!r}, reference {ref!r}"
                if rep.violated != (ref > TOL) and abs(ref - TOL) > 1e-12:
                    return f"{cond} verdict at s={s} disagrees with the reference"
            return None

        return Task(f"curve-{'tri' if n == 3 else 'quad'}",
                    lambda: witness.noise_margin_curve(state, ops, cond, self.CURVE),
                    check, margin=lambda reports: max(r.margin for r in reports))

    def _evaluate(self, dims, rng) -> Task:
        psi = _haar(rng, int(np.prod(dims)))
        state = states.PureState(dims, psi)
        s = 0.5 + 0.4 * rng.random()
        ops = [rank_one(rng, d) for d in dims]
        cond = self._condition(len(dims))

        def check(rep):
            ref = oracle.noisy_margins(psi, cond, ops, [s])[0] + self.skew
            if abs(rep.margin - ref) > 1e-12:
                return f"{cond} on {dims} margin {rep.margin!r}, reference {ref!r}"
            return None

        return Task("eval-" + "x".join(map(str, dims)),
                    lambda: witness.evaluate_condition(cond, states.white_noise_mix(state, s), ops),
                    check)

    def _soundness(self, rng) -> Task:
        trials = []
        for dims in self.SOUNDNESS_DIMS:
            parts = states.all_bipartitions(len(dims))
            for _ in range(self.SOUNDNESS_TRIALS):
                seed = int(rng.integers(2**32))
                trials.append((dims, parts, seed, [rank_one(rng, d) for d in dims]))

        def run():
            out = []
            for dims, parts, seed, ops in trials:
                rho = states.random_biseparable(dims, parts, len(parts), seed)
                out.append(witness.evaluate_condition(self._condition(len(dims)), rho, ops))
            return out

        def check(reports):
            bad = [r.margin for r in reports if r.violated or r.margin > TOL]
            return f"biseparable states violated: margins {bad}" if bad else None

        return Task("soundness", run, check)

    def warm_up(self) -> None:
        for task in self.cycle(WARM_UP_CYCLE):
            task.run()

    def cycle(self, index: int) -> list[Task]:
        rng = seeded_rng(self.seed, index)
        return [
            self._threshold(3, rng), self._threshold(4, rng),
            self._curve(3, rng), self._curve(4, rng),
            self._evaluate((4, 4, 4), rng), self._evaluate((4, 4, 4, 4), rng),
            self._soundness(rng),
        ]


# --- operator_search --------------------------------------------------------------


class OperatorSearch(Workload):
    """Nelder-Mead searches over rank-one operators: thousands of evaluator
    calls on tiny states, so per-call overhead dominates."""

    name = "operator_search"
    kinds = ("tri-dagger", "tri-product", "quad-dagger", "pure-3x3x3", "mixed-2x2x2")
    RESTARTS = 3
    BUDGET = 100

    def _inputs(self, kind: str, rng):
        """State, condition, and the expectation function the oracle uses."""
        if kind == "mixed-2x2x2":
            rho = np.eye(8, dtype=complex) / 8
            return states.DensityMatrix((2, 2, 2), rho), "tri-dagger", oracle.density_expect(rho)
        if kind == "pure-3x3x3":
            psi = np.zeros(27, dtype=complex)
            psi[4], psi[9] = 1.0, np.exp(2j * np.pi * rng.random())  # |011> and |100>
            psi = psi / np.sqrt(2) + 0.2 * _haar(rng, 27)
            psi /= np.linalg.norm(psi)
            return states.PureState((3, 3, 3), psi), "tri-dagger", oracle.pure_expect(psi)
        n = 4 if kind == "quad-dagger" else 3
        rho = _noisy_matrix(oracle.flip_pair(n, 2 * np.pi * rng.random()), 0.82 + 0.06 * rng.random())
        return states.DensityMatrix((2,) * n, rho), kind, oracle.density_expect(rho)

    def _task(self, kind: str, rng) -> Task:
        state, cond, expect = self._inputs(kind, rng)
        seed = int(rng.integers(2**31))
        canonical = oracle.margin_with(expect, cond, oracle.lowering_ops(state.dims)) + self.skew

        def run():
            return search.optimize(state, cond, restarts=self.RESTARTS, budget=self.BUDGET, seed=seed)

        def check(res):
            got = res.best_report.margin
            ref = oracle.margin_with(expect, cond, res.best_params.operators())
            return _first_failure([
                (abs(got - ref) <= 1e-10, f"{kind}: reported margin {got!r}, reference {ref!r}"),
                (got >= canonical - 1e-12, f"{kind}: best margin {got!r} below canonical {canonical!r}"),
                (kind != "mixed-2x2x2" or (got <= TOL and not res.best_report.violated),
                 f"maximally mixed state reached margin {got!r}"),
            ])

        scans = kind in ("tri-dagger", "quad-dagger", "pure-3x3x3")
        return Task(kind, run, check, margin=(lambda res: res.best_report.margin) if scans else None)

    def warm_up(self) -> None:
        rng = seeded_rng(self.seed, WARM_UP_CYCLE)
        for kind in self.kinds:
            state, cond, _ = self._inputs(kind, rng)
            search.optimize(state, cond, restarts=1, budget=20, seed=0)

    def cycle(self, index: int) -> list[Task]:
        rng = seeded_rng(self.seed, index)
        return [self._task(kind, rng) for kind in self.kinds]

    def recheck(self) -> list[str | None]:
        """A search must repeat exactly for a given seed: run cycle 0 twice."""
        out = []
        for a, b in zip(self.cycle(0), self.cycle(0)):
            ra, rb = a.run(), b.run()
            same = (ra.evaluations == rb.evaluations
                    and ra.best_report.margin == rb.best_report.margin)
            out.append(None if same else f"{a.kind}: search does not repeat for its seed")
        return out


# --- cli_batch ----------------------------------------------------------------------


REPORT_KEYS = {"lhs", "rhs_terms", "rhs_sum", "rhs_max", "margin", "violated",
               "tolerance", "sum_margin", "sum_violated"}
SOUNDNESS_KEYS = {"condition", "dims", "trials", "seed", "max_margin", "violations", "tolerance"}
OPTIMIZE_KEYS = {"best_params", "best_report", "evaluations", "seed"}


def child_env(root: str) -> dict:
    """Environment for gmekit subprocesses: the source tree on the path, the
    pinned thread count, and no GME_TOLERANCE override."""
    env = dict(os.environ)
    env.pop("GME_TOLERANCE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(root: str, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "gmekit.cli", *argv], cwd=root,
                          env=child_env(root), capture_output=True, text=True, timeout=120)


def _json_out(proc, code: int, keys: set[str]):
    """Parsed stdout when the exit code and the JSON keys are as expected."""
    if proc.returncode != code:
        return None, f"exit code {proc.returncode} != {code}: {proc.stderr.strip()[-200:]}"
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None, "stdout is not JSON"
    if set(doc) != keys:
        return None, f"stdout keys {sorted(doc)} != {sorted(keys)}"
    return doc, None


class CliBatch(Workload):
    """One `python -m gmekit.cli` subprocess per task: interpreter start-up
    and `import gmekit` on every call."""

    name = "cli_batch"
    kinds = CLI_COMMANDS
    runs_children = True
    SOUNDNESS_TRIALS = 20
    DOWNCONV = ["--t-stop", "0.5", "--t-step", "0.05"]

    def prepare(self) -> None:
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=os.path.join(self.root, ".bench_results"))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _state_file(self, index: int, psi: np.ndarray) -> str:
        occ = {3: [0, 1, 1], 4: [1, 0, 0]}
        terms = [{"occupation": occ[i], "re": psi[i].real, "im": psi[i].imag} for i in (3, 4)]
        path = os.path.join(self.workdir, f"state-{index}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"dims": [2, 2, 2], "kind": "pure", "terms": terms}, fh)
        return path

    def _cli_task(self, kind: str, argv: list[str], check) -> Task:
        return Task(kind, lambda: run_cli(self.root, [kind, *argv]), check,
                    margin=(lambda p: json.loads(p.stdout)["best_report"]["margin"])
                    if kind == "optimize" else None,
                    layer_span=f"cli.{kind}")

    def warm_up(self) -> None:
        self.cycle(WARM_UP_CYCLE)[0].run()

    def cycle(self, index: int) -> list[Task]:
        rng = seeded_rng(self.seed, index)
        psi = oracle.flip_pair(3, 2 * np.pi * rng.random())
        path = self._state_file(index, psi)
        ops = ["--ops", "sigma_minus", "sigma_minus", "sigma_minus", "--condition", "tri-dagger"]
        ref_margin = oracle.margin_with(oracle.pure_expect(psi), "tri-dagger",
                                        oracle.lowering_ops((2, 2, 2))) + self.skew
        sound_seed, opt_seed = (int(x) for x in rng.integers(2**31, size=2))
        coupling = 0.9 + 0.2 * rng.random()

        def check_evaluate(proc):
            doc, err = _json_out(proc, 10, REPORT_KEYS)
            if err or abs(doc["margin"] - ref_margin) > 1e-12:
                return err or f"evaluate margin {doc['margin']!r} != {ref_margin!r}"
            return None

        def check_scan(proc):
            doc, err = _json_out(proc, 10, {"threshold", "condition"})
            ref = oracle.TRI_FLIP_THRESHOLD + self.skew
            if err or abs(doc["threshold"] - ref) > 1e-9:
                return err or f"scan-noise threshold {doc['threshold']!r} != {ref!r}"
            return None

        def check_soundness(proc):
            doc, err = _json_out(proc, 0, SOUNDNESS_KEYS)
            if err or doc["violations"] != 0 or doc["trials"] != self.SOUNDNESS_TRIALS:
                return err or f"soundness reported {doc['violations']} violations"
            return None

        def check_downconv(proc):
            if proc.returncode != 10:
                return f"downconv exit code {proc.returncode} != 10"
            lines = proc.stdout.strip().splitlines()
            header = "t," + ",".join(f"prob_{n}" for n in range(5)) + ",witness_lhs,violated"
            if lines[0] != header or len(lines) != 12:
                return "downconv CSV has the wrong header or row count"
            for line in lines[1:]:
                cells = line.split(",")
                c = oracle.downconv_amplitudes(4, coupling, (0.0, 0.0, 0.0), float(cells[0]))
                ref = oracle.even_pair_lhs(c) + self.skew
                if abs(float(cells[-2]) - ref) > 1e-12:
                    return f"downconv witness_lhs {cells[-2]} != {ref!r}"
            return None

        def check_optimize(proc):
            doc, err = _json_out(proc, 10, OPTIMIZE_KEYS)
            if err or doc["best_report"]["margin"] < ref_margin - 1e-12:
                return err or f"optimize margin {doc['best_report']['margin']!r} < {ref_margin!r}"
            return None

        return [
            self._cli_task("evaluate", ["--state", path, *ops], check_evaluate),
            self._cli_task("scan-noise", ["--state", path, *ops], check_scan),
            self._cli_task("soundness", ["--dims", "2", "2", "2", "--condition", "tri-dagger",
                                         "--trials", str(self.SOUNDNESS_TRIALS),
                                         "--seed", str(sound_seed)], check_soundness),
            self._cli_task("downconv", ["--N", "4", "--g", repr(coupling), *self.DOWNCONV],
                           check_downconv),
            self._cli_task("optimize", ["--state", path, "--condition", "tri-dagger",
                                        "--restarts", "2", "--budget", "100",
                                        "--seed", str(opt_seed)], check_optimize),
        ]


WORKLOADS = {w.name: w for w in (FockSweep, NoisyCertify, OperatorSearch, CliBatch)}

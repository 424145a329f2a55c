"""Search over rank-one local operators for the strongest violation.

Each local operator is parameterised as |u><v| with unit vectors u, v, which
covers the operator choices the conditions are usually evaluated with (a
lowering operator |0><1| is the case u = |0>, v = |1>).  A unit vector in
dimension d is charted by d-1 hyperspherical angles and d-1 component
phases (2d-2 real parameters; the global phase is fixed, and is irrelevant
to every condition anyway).

The margin is maximised by multi-start Nelder-Mead: the objective contains
a max over rhs terms, so it is not smooth at term crossings and gradient
methods are a poor fit.  Restart 0 always starts from the canonical
lowering-ladder point (u = |0>, v = |1> on every subsystem), so the search
result is never worse than that standard choice; the remaining restarts
start from seeded random parameters and the whole search is deterministic
given its seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .states import DensityMatrix, PureState
from .witness import WitnessReport, condition_arity, evaluate_condition

State = PureState | DensityMatrix

SEARCH_CONDITIONS = ("tri-product", "tri-dagger", "quad-dagger")

UNIT_ATOL = 1e-12


def _unit_vector(angles: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Unit vector from hyperspherical magnitudes and component phases."""
    d = len(angles) + 1
    mags = np.empty(d)
    sin_prod = 1.0
    for k in range(d - 1):
        mags[k] = sin_prod * np.cos(angles[k])
        sin_prod *= np.sin(angles[k])
    mags[d - 1] = sin_prod
    v = mags.astype(complex)
    v[1:] *= np.exp(1j * np.asarray(phases, dtype=float))
    return v


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first nonzero component is real >= 0."""
    nz = np.flatnonzero(v)
    if nz.size:
        lead = v[nz[0]]
        v = v * (np.conj(lead) / abs(lead))
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class RankOneParams:
    """One (u, v) unit-vector pair per subsystem, defining operators |u><v|."""

    vectors: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        fixed = []
        for u, v in self.vectors:
            u = np.asarray(u, dtype=complex)
            v = np.asarray(v, dtype=complex)
            for w in (u, v):
                if abs(np.linalg.norm(w) - 1.0) > UNIT_ATOL:
                    raise ValidationError("rank-one parameter vectors must be unit norm")
            u, v = u.copy(), v.copy()
            u.setflags(write=False)
            v.setflags(write=False)
            fixed.append((u, v))
        object.__setattr__(self, "vectors", tuple(fixed))

    def operators(self) -> list[np.ndarray]:
        return [np.outer(u, v.conj()) for u, v in self.vectors]

    def to_dict(self) -> dict:
        return {
            "vectors": [
                {
                    "u": [[z.real, z.imag] for z in u],
                    "v": [[z.real, z.imag] for z in v],
                }
                for u, v in self.vectors
            ]
        }


@dataclass(frozen=True)
class OptimizationResult:
    best_params: RankOneParams
    best_report: WitnessReport
    evaluations: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "best_params": self.best_params.to_dict(),
            "best_report": self.best_report.to_dict(),
            "evaluations": self.evaluations,
            "seed": self.seed,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _unpack(x: np.ndarray, dims: tuple[int, ...]) -> RankOneParams:
    vectors = []
    pos = 0
    for d in dims:
        block = []
        for _ in range(2):
            k = d - 1
            angles = x[pos : pos + k]
            phases = x[pos + k : pos + 2 * k]
            pos += 2 * k
            block.append(_phase_fixed(_unit_vector(angles, phases)))
        vectors.append((block[0], block[1]))
    return RankOneParams(tuple(vectors))


def _canonical_start(dims: tuple[int, ...]) -> np.ndarray:
    """Parameters of the lowering-ladder choice u=|0>, v=|1> per subsystem."""
    chunks = []
    for d in dims:
        k = d - 1
        u_part = np.zeros(2 * k)
        v_part = np.zeros(2 * k)
        v_part[0] = np.pi / 2  # first magnitude angle moves weight onto |1>
        chunks.extend([u_part, v_part])
    return np.concatenate(chunks)


def _random_start(dims: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    chunks = []
    for d in dims:
        k = d - 1
        for _ in range(2):
            chunks.append(rng.uniform(0.0, np.pi, size=k))
            chunks.append(rng.uniform(0.0, 2.0 * np.pi, size=k))
    return np.concatenate(chunks)


def optimize(
    state: State,
    condition: str,
    restarts: int = 8,
    budget: int = 400,
    seed: int = 0,
    tolerance: float | None = None,
) -> OptimizationResult:
    """Maximise the violation margin of a condition over rank-one operators.

    Parameters
    ----------
    state : PureState or DensityMatrix
    condition : str
        One of "tri-product", "tri-dagger", "quad-dagger"; must match the
        subsystem count.
    restarts, budget : int
        Independent local searches and objective-evaluation budget for each.
    seed : int
        Seeds the random restart points; the whole search is deterministic
        and the best margin is non-decreasing in ``restarts``.

    Ties between restarts keep the earliest one.
    """
    if condition not in SEARCH_CONDITIONS:
        raise ValidationError(
            f"condition {condition!r} not searchable; choose from {SEARCH_CONDITIONS}"
        )
    n_ops = condition_arity(condition)
    if len(state.dims) != n_ops:
        raise ValidationError(
            f"condition {condition!r} needs {n_ops} subsystems, state has {len(state.dims)}"
        )
    restarts = int(restarts)
    budget = int(budget)
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")

    # Imported here so that `import gmekit` does not pay for scipy.optimize.
    from scipy.optimize import minimize

    dims = state.dims

    def objective(x: np.ndarray) -> float:
        params = _unpack(x, dims)
        report = evaluate_condition(condition, state, params.operators(), tolerance=tolerance)
        return -report.margin

    evaluations = 0
    best_x = None
    best_neg = np.inf
    for k in range(restarts):
        if k == 0:
            x0 = _canonical_start(dims)
        else:
            child = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
            x0 = _random_start(dims, child)
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxfev": budget, "xatol": 1e-10, "fatol": 1e-13, "disp": False},
        )
        evaluations += int(res.nfev)
        if res.fun < best_neg:
            best_neg = res.fun
            best_x = res.x
    best_params = _unpack(best_x, dims)
    best_report = evaluate_condition(
        condition, state, best_params.operators(), tolerance=tolerance
    )
    return OptimizationResult(
        best_params=best_params,
        best_report=best_report,
        evaluations=evaluations,
        seed=int(seed),
    )

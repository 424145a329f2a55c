"""Search over rank-one local operators X_k = |u_k><v_k| for the best margin.

Fix every unit vector but one, w.  The lhs is |a†w|, and each rhs term squared
is w†Q_j w with Q_j >= 0: u enters the dagger rule's rhs only as XX† = |u><u|,
v only as X†X = |v><v|, the product rule's rhs holds only v, and a term
without w is c_j = w†(c_j I)w.  So the RSS ratio lhs/sqrt(sum of terms
squared) is a generalized Rayleigh quotient, maximised by w ∝ Q⁻¹a for
Q = sum_j Q_j, or by a's component in ker Q if it has one (the rhs is 0 there).

A sweep updates every u_k and v_k in turn, then evaluates the condition once;
``budget`` and ``evaluations`` count these evaluations, each restart's start
included.  A restart ends when the RSS ratio stops rising; the best max-form
margin seen is kept, the earliest on a tie.  Restart 0 starts at u = |0>,
v = |1> everywhere, so budget 1 returns the lowering-operator report and no
result is worse; restart k starts from Haar-random vectors drawn from
``SeedSequence(seed, spawn_key=(k,))``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .exceptions import ValidationError
from .states import DensityMatrix, PureState, _frozen_array, all_bipartitions, haar_random_state
from .witness import _FORMS, WitnessReport, _dagger_terms, _expectation, _product_terms
from .witness import condition_arity, evaluate_condition

SEARCH_CONDITIONS = ("tri-product", "tri-dagger", "quad-dagger")

UNIT_ATOL = 1e-12

# Eigenvalues of Q and a's component in ker Q at or below _ZERO are zero (a
# and Q hold expectations of norm-1 operators).  A rise of the RSS ratio below
# the fraction _RISE ends a restart, which can otherwise creep for hundreds of
# sweeps.  Only search points whose largest rhs term is at least _RESOLVED are
# kept: a smaller term is the root of a roundoff-sized expectation, and its
# margin is not reproducible to 1e-10.  Restart 0's start is always kept.
_ZERO = 1e-12
_RISE = 1e-6
_RESOLVED = 1e-6


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    """Normalise v and rotate its phase so its first nonzero component is real > 0."""
    v = v / np.linalg.norm(v)
    return v * np.exp(-1j * np.angle(v[np.flatnonzero(v)[0]]))


def _frozen_unit(w) -> np.ndarray:
    """A read-only copy of w, checked to be a finite 1-D unit vector."""
    w = _frozen_array(w)
    if w.ndim != 1 or not np.all(np.isfinite(w)):
        raise ValidationError("rank-one parameter vectors must be finite and 1-D")
    if abs(np.linalg.norm(w) - 1.0) > UNIT_ATOL:
        raise ValidationError("rank-one parameter vectors must be unit norm")
    return w


@dataclass(frozen=True)
class RankOneParams:
    """One (u, v) unit-vector pair per subsystem, defining operators |u><v|."""

    vectors: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        pairs = tuple(tuple(_frozen_unit(w) for w in pair) for pair in self.vectors)
        object.__setattr__(self, "vectors", pairs)

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


@cache
def _basis_operators(dim: int) -> tuple[np.ndarray, ...]:
    """|e_i><e_j| in row-major (i, j) order, the same objects on every call,
    so factor lists that share a prefix share its products."""
    return tuple(_frozen_array(np.eye(dim * dim)).reshape(dim * dim, dim, dim))


def _party_forms(u: np.ndarray, v: np.ndarray) -> dict[str, np.ndarray]:
    x = np.outer(u, v.conj())
    xd = x.conj().T
    return {"X": x, "X†": xd, **{form: make(x, xd) for form, make in _FORMS.items()}}


def _closed_form(expect, rules, vectors, k: int, side: int) -> np.ndarray:
    """The unit vector in slot ``side`` (0: u, 1: v) of party k that maximises
    the RSS ratio, given the rule's forms per bipartition and every other
    vector; the current one when the lhs vanishes whatever it is.  a and the
    Q_j are expectations with |e_i><e_j| at party k."""
    lhs_forms, terms = rules[0][0], [groups for _, groups in rules]
    mats = [_party_forms(u, v) for u, v in vectors]
    u, v = vectors[k]
    d = len(u)
    basis = _basis_operators(d)
    own = "XX†" if side == 0 else "X†X"  # the rhs form |w><w| of party k

    def lists(group, at_k):
        return [[e if j == k else mats[j][f] for j, f in enumerate(group)] for e in at_k]

    todo = lists(lhs_forms, basis)
    for groups in terms:
        for group in groups:
            todo += lists(group, basis if group[k] == own else [mats[k][group[k]]])
    values = iter(expect(todo))

    def matrix():  # M[i, j] = expectation with |e_i><e_j| at party k
        return np.array([next(values) for _ in basis]).reshape(d, d)

    m = matrix() if lhs_forms[k] == "X" else matrix().conj().T
    # lhs = |u^T m v*|, so lhs = |a†w| with a = m* v for u and a = m^T u for v.
    a = m.conj() @ v if side == 0 else m.T @ u
    q = np.zeros((d, d), dtype=complex)
    for groups in terms:
        coef, quad = 1.0, np.eye(d)
        for group in groups:
            if group[k] == own:
                quad = matrix().T  # <|w><w|> = w† M^T w
            else:
                coef *= max(next(values).real, 0.0)
        q += coef * quad
    lam, vecs = np.linalg.eigh(0.5 * (q + q.conj().T))
    b = vecs.conj().T @ a
    null = lam <= _ZERO
    if np.linalg.norm(b[null]) > _ZERO:
        b[~null] = 0.0
    else:
        b[null] = 0.0
        b[~null] /= lam[~null]
    w = vecs @ b
    return _phase_fixed(w) if np.linalg.norm(w) > 0 else vectors[k][side]


def optimize(
    state: PureState | DensityMatrix,
    condition: str,
    restarts: int = 8,
    budget: int = 400,
    seed: int = 0,
    tolerance: float | None = None,
) -> OptimizationResult:
    """Maximise the violation margin of a condition over rank-one operators.

    ``condition`` is one of ``SEARCH_CONDITIONS`` and must match the
    subsystem count.  ``restarts`` local searches run, each making at most
    ``budget`` condition evaluations; ``seed`` seeds their random starts.
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

    rule = _product_terms if condition == "tri-product" else _dagger_terms
    rules = [rule(n_ops, block) for block in all_bipartitions(n_ops)]
    _, expect = _expectation(state)

    evaluations = 0
    best = None
    for k in range(restarts):
        if k == 0:
            vectors = [list(np.eye(d, dtype=complex)[:2]) for d in state.dims]
        else:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
            vectors = [[_phase_fixed(haar_random_state(d, rng)) for _ in "uv"] for d in state.dims]
        ratio = -math.inf
        for sweep in range(budget):
            if sweep:
                for party in range(n_ops):
                    for side in (0, 1):
                        vectors[party][side] = _closed_form(expect, rules, vectors, party, side)
            ops = [np.outer(u, v.conj()) for u, v in vectors]
            report = evaluate_condition(condition, state, ops, tolerance=tolerance)
            evaluations += 1
            if best is None or (report.margin > best[0].margin and report.rhs_max >= _RESOLVED):
                best = report, RankOneParams(tuple(map(tuple, vectors)))
            rss = math.hypot(*(value for _, value in report.rhs_terms))
            rss_ratio = report.lhs / rss if rss else (math.inf if report.lhs else 0.0)
            if rss_ratio <= ratio * (1 + _RISE):
                break
            ratio = rss_ratio

    return OptimizationResult(best[1], best[0], evaluations, int(seed))

"""Sufficient conditions for bipartite and genuine multipartite entanglement.

Every condition here has the same shape: on the left, the magnitude of a
cross correlation of local (generally non-hermitian) operators; on the
right, square roots of expectation values of positive operator products,
one term per bipartition of the subsystems.  Any state that is a convex
mixture of bipartition-separable states satisfies

    lhs  <=  max over bipartitions of the rhs terms,

so a violation certifies entanglement across every listed bipartition at
once, i.e. genuine multipartite entanglement for the tri- and quadripartite
conditions.  The conditions are sufficient only: a non-violation proves
nothing about the state.

With A, B, C acting on subsystems a, b, c (dagger written as †):

  tripartite dagger form
      |⟨A†BC⟩| <= max( ⟨A†A BB† C†C⟩^1/2,     # ab|c
                       ⟨A†A B†B CC†⟩^1/2,     # ac|b
                       ⟨A†A B†B C†C⟩^1/2 )    # bc|a

  tripartite product form
      |⟨ABC⟩| <= max( (⟨A†A⟩⟨B†B C†C⟩)^1/2,   # a|bc
                      (⟨B†B⟩⟨A†A C†C⟩)^1/2,   # b|ac
                      (⟨C†C⟩⟨A†A B†B⟩)^1/2 )  # c|ab

The quadripartite dagger form bounds |⟨A†BCD⟩| by the maximum over the
seven bipartitions of four subsystems.  In every term A enters as A†A; an
operator X in A's block enters reversed as XX†, and one in the opposite
block enters as X†X (e.g. the ab|cd term is ⟨A†A BB† C†C D†D⟩^1/2).

For hermitian operators each bound reduces to a Cauchy-Schwarz inequality
that holds for every density matrix, so detection power requires
non-hermitian choices such as lowering operators.

Reports carry both the max form and the weaker sum form (lhs vs the sum of
the terms) so their strength can be compared directly.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalConsistencyError, ShapeError, ValidationError
from .linalg import _as_square, kron_all
from .operators import embed
from .states import DensityMatrix, PureState, white_noise_mix

DEFAULT_TOLERANCE = 1e-10

State = PureState | DensityMatrix

_LETTERS = "abcdefgh"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of evaluating one condition on one state.

    ``margin = lhs - rhs_max`` and ``violated`` means the margin exceeds the
    tolerance, certifying (genuine multipartite) entanglement.  ``rhs_terms``
    keeps one labelled value per bipartition; ``sum_margin``/``sum_violated``
    give the weaker sum-form verdict.
    """

    lhs: float
    rhs_terms: tuple[tuple[str, float], ...]
    rhs_sum: float
    rhs_max: float
    margin: float
    violated: bool
    tolerance: float

    @property
    def sum_margin(self) -> float:
        return self.lhs - self.rhs_sum

    @property
    def sum_violated(self) -> bool:
        return self.sum_margin > self.tolerance

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs_terms": {label: value for label, value in self.rhs_terms},
            "rhs_sum": self.rhs_sum,
            "rhs_max": self.rhs_max,
            "margin": self.margin,
            "violated": self.violated,
            "tolerance": self.tolerance,
            "sum_margin": self.sum_margin,
            "sum_violated": self.sum_violated,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def csv_row(self) -> str:
        """Row form ``lhs,rhs_max,rhs_sum,margin,violated``."""
        return ",".join(
            [_fmt(self.lhs), _fmt(self.rhs_max), _fmt(self.rhs_sum), _fmt(self.margin)]
            + ["true" if self.violated else "false"]
        )


def _resolve_tolerance(tolerance: float | None) -> float:
    tol = DEFAULT_TOLERANCE if tolerance is None else float(tolerance)
    if tol < 0:
        raise ValidationError(f"tolerance must be nonnegative, got {tol}")
    return tol


def _build_report(lhs: float, terms: Sequence[tuple[str, float]], tolerance: float) -> WitnessReport:
    values = [v for _, v in terms]
    rhs_max = max(values)
    rhs_sum = float(sum(values))
    margin = lhs - rhs_max
    return WitnessReport(
        lhs=float(lhs),
        rhs_terms=tuple(terms),
        rhs_sum=rhs_sum,
        rhs_max=float(rhs_max),
        margin=float(margin),
        violated=bool(margin > tolerance),
        tolerance=tolerance,
    )


def _check_factors(state: State, ops: Sequence) -> list[np.ndarray]:
    if len(ops) != len(state.dims):
        raise ShapeError(f"{len(ops)} operators for {len(state.dims)} subsystems")
    mats = []
    for k, op in enumerate(ops):
        m = _as_square(op)
        if m.shape[0] != state.dims[k]:
            raise ShapeError(
                f"operator {k} has dimension {m.shape[0]}, subsystem has {state.dims[k]}"
            )
        mats.append(m)
    return mats


def _expect_factors(state: State, factors: Sequence[np.ndarray]) -> complex:
    """Expectation of a tensor product of per-subsystem operators."""
    if isinstance(state, PureState):
        # Apply each factor to its own axis of the amplitude tensor, then take
        # one inner product: O(D * sum(d)) work, and the D x D composite
        # operator is never formed.
        out = psi = state.amplitudes
        pre, post = 1, psi.size
        for f, d in zip(factors, state.dims):
            post //= d
            out = f @ out.reshape(pre, d, post)
            pre *= d
        return complex(np.vdot(psi, out))
    # Tr(F rho) as an elementwise sum, O(D^2) rather than the O(D^3) product.
    return complex(np.einsum("ij,ji->", kron_all(factors), state.matrix))


def _expect_full(state: State, op: np.ndarray) -> complex:
    if isinstance(state, PureState):
        return complex(np.vdot(state.amplitudes, op @ state.amplitudes))
    return complex(np.einsum("ij,ji->", op, state.matrix))


def _positive(value: complex, tolerance: float, what: str) -> float:
    """Real part of a positive-operator expectation, clamped at zero.

    Small negative values (within -tolerance) are roundoff and clamp to 0;
    anything more negative indicates an invalid state and raises.
    """
    x = value.real
    if x < -tolerance:
        raise NumericalConsistencyError(
            f"expectation of positive operator {what} is {x!r}, below -tolerance"
        )
    return max(x, 0.0)


def _block_label(block: Sequence[int], n: int) -> str:
    rest = [i for i in range(n) if i not in block]
    return "".join(_LETTERS[i] for i in block) + "|" + "".join(_LETTERS[i] for i in rest)


def _check_blocks(
    state: State, blocks: Sequence[Sequence[int]] | None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    n = len(state.dims)
    if blocks is None:
        blocks = ((0,), tuple(range(1, n)))
    if len(blocks) != 2:
        raise ValidationError("exactly two blocks are required")
    left = tuple(int(i) for i in blocks[0])
    right = tuple(int(i) for i in blocks[1])
    if set(left) & set(right):
        raise ValidationError(f"blocks {left} and {right} overlap")
    if set(left) | set(right) != set(range(n)):
        raise ValidationError("blocks must cover all subsystems")
    if not left or not right:
        raise ValidationError("blocks must both be nonempty")
    return left, right


def bipartite_dagger(
    state: State,
    op_left,
    op_right,
    blocks: Sequence[Sequence[int]] | None = None,
    tolerance: float | None = None,
) -> WitnessReport:
    """Separability condition |⟨L†M⟩|² <= ⟨L†L M†M⟩ across a bipartition.

    L acts on ``blocks[0]``, M on ``blocks[1]`` (default: first subsystem
    versus the rest).  Violation certifies entanglement across that
    bipartition.
    """
    tol = _resolve_tolerance(tolerance)
    left, right = _check_blocks(state, blocks)
    n = len(state.dims)
    op_l = embed(state.dims, left, op_left)
    op_m = embed(state.dims, right, op_right)
    lhs = abs(_expect_full(state, op_l.conj().T @ op_m))
    joint = op_l.conj().T @ op_l @ op_m.conj().T @ op_m
    term = np.sqrt(_positive(_expect_full(state, joint), tol, "L†L M†M"))
    return _build_report(lhs, [(_block_label(left, n), float(term))], tol)


def bipartite_product(
    state: State,
    op_left,
    op_right,
    blocks: Sequence[Sequence[int]] | None = None,
    tolerance: float | None = None,
) -> WitnessReport:
    """Separability condition |⟨LM⟩|² <= ⟨L†L⟩⟨M†M⟩ across a bipartition."""
    tol = _resolve_tolerance(tolerance)
    left, right = _check_blocks(state, blocks)
    n = len(state.dims)
    op_l = embed(state.dims, left, op_left)
    op_m = embed(state.dims, right, op_right)
    lhs = abs(_expect_full(state, op_l @ op_m))
    e_l = _positive(_expect_full(state, op_l.conj().T @ op_l), tol, "L†L")
    e_m = _positive(_expect_full(state, op_m.conj().T @ op_m), tol, "M†M")
    term = np.sqrt(e_l * e_m)
    return _build_report(lhs, [(_block_label(left, n), float(term))], tol)


def tripartite_dagger(
    state: State, op_a, op_b, op_c, tolerance: float | None = None
) -> WitnessReport:
    """Dagger-form genuine tripartite entanglement condition.

    lhs = |⟨A†BC⟩|; one rhs term per bipartition, as listed in the module
    docstring.  ``violated`` certifies genuine tripartite entanglement.
    """
    tol = _resolve_tolerance(tolerance)
    if len(state.dims) != 3:
        raise ShapeError(f"tripartite condition needs 3 subsystems, got {len(state.dims)}")
    a, b, c = _check_factors(state, (op_a, op_b, op_c))
    ad, bd, cd = a.conj().T, b.conj().T, c.conj().T
    lhs = abs(_expect_factors(state, [ad, b, c]))
    products = [
        ("ab|c", [ad @ a, b @ bd, cd @ c]),
        ("ac|b", [ad @ a, bd @ b, c @ cd]),
        ("bc|a", [ad @ a, bd @ b, cd @ c]),
    ]
    terms = [
        (label, float(np.sqrt(_positive(_expect_factors(state, facs), tol, label))))
        for label, facs in products
    ]
    return _build_report(lhs, terms, tol)


def tripartite_product(
    state: State, op_a, op_b, op_c, tolerance: float | None = None
) -> WitnessReport:
    """Product-form genuine tripartite entanglement condition.

    lhs = |⟨ABC⟩|; each rhs term is the square root of a product of a local
    second moment with a joint second moment of the complementary pair.
    """
    tol = _resolve_tolerance(tolerance)
    if len(state.dims) != 3:
        raise ShapeError(f"tripartite condition needs 3 subsystems, got {len(state.dims)}")
    a, b, c = _check_factors(state, (op_a, op_b, op_c))
    eyes = [np.eye(d, dtype=complex) for d in state.dims]
    aa, bb, cc = a.conj().T @ a, b.conj().T @ b, c.conj().T @ c
    lhs = abs(_expect_factors(state, [a, b, c]))
    pairs = [
        ("a|bc", [aa, eyes[1], eyes[2]], [eyes[0], bb, cc]),
        ("b|ac", [eyes[0], bb, eyes[2]], [aa, eyes[1], cc]),
        ("c|ab", [eyes[0], eyes[1], cc], [aa, bb, eyes[2]]),
    ]
    terms = []
    for label, single, joint in pairs:
        e1 = _positive(_expect_factors(state, single), tol, label)
        e2 = _positive(_expect_factors(state, joint), tol, label)
        terms.append((label, float(np.sqrt(e1 * e2))))
    return _build_report(lhs, terms, tol)


def quadripartite_dagger(
    state: State, op_a, op_b, op_c, op_d, tolerance: float | None = None
) -> WitnessReport:
    """Dagger-form genuine quadripartite entanglement condition.

    lhs = |⟨A†BCD⟩|; seven rhs terms, one per bipartition of four
    subsystems.  ``violated`` certifies genuine 4-partite entanglement.
    """
    tol = _resolve_tolerance(tolerance)
    if len(state.dims) != 4:
        raise ShapeError(f"quadripartite condition needs 4 subsystems, got {len(state.dims)}")
    a, b, c, d = _check_factors(state, (op_a, op_b, op_c, op_d))
    ad, bd, cd, dd = (m.conj().T for m in (a, b, c, d))
    lhs = abs(_expect_factors(state, [ad, b, c, d]))
    aa = ad @ a
    products = [
        ("a|bcd", [aa, bd @ b, cd @ c, dd @ d]),
        ("b|acd", [aa, bd @ b, c @ cd, d @ dd]),
        ("c|abd", [aa, b @ bd, cd @ c, d @ dd]),
        ("d|abc", [aa, b @ bd, c @ cd, dd @ d]),
        ("ab|cd", [aa, b @ bd, cd @ c, dd @ d]),
        ("ac|bd", [aa, bd @ b, c @ cd, dd @ d]),
        ("ad|bc", [aa, bd @ b, cd @ c, d @ dd]),
    ]
    terms = [
        (label, float(np.sqrt(_positive(_expect_factors(state, facs), tol, label))))
        for label, facs in products
    ]
    return _build_report(lhs, terms, tol)


# --- condition registry -------------------------------------------------------

CONDITION_NAMES = ("bi1", "bi2", "tri-product", "tri-dagger", "quad-dagger")

_ARITY = {"bi1": 2, "bi2": 2, "tri-product": 3, "tri-dagger": 3, "quad-dagger": 4}


def condition_arity(name: str) -> int:
    """Number of operator slots the named condition takes."""
    try:
        return _ARITY[name]
    except KeyError:
        raise ValidationError(
            f"unknown condition {name!r}; choose from {CONDITION_NAMES}"
        ) from None


def evaluate_condition(
    name: str,
    state: State,
    ops: Sequence,
    tolerance: float | None = None,
    blocks: Sequence[Sequence[int]] | None = None,
) -> WitnessReport:
    """Evaluate a condition selected by name.

    ``bi1``/``bi2`` take (L, M) plus optional ``blocks``; the multipartite
    conditions take one operator per subsystem.
    """
    arity = condition_arity(name)
    if len(ops) != arity:
        raise ValidationError(f"condition {name!r} takes {arity} operators, got {len(ops)}")
    if name == "bi1":
        return bipartite_dagger(state, ops[0], ops[1], blocks=blocks, tolerance=tolerance)
    if name == "bi2":
        return bipartite_product(state, ops[0], ops[1], blocks=blocks, tolerance=tolerance)
    if name == "tri-product":
        return tripartite_product(state, *ops, tolerance=tolerance)
    if name == "tri-dagger":
        return tripartite_dagger(state, *ops, tolerance=tolerance)
    return quadripartite_dagger(state, *ops, tolerance=tolerance)


# --- white-noise threshold ----------------------------------------------------


def noise_margin_curve(
    psi: PureState,
    ops: Sequence,
    condition: str,
    s_values: Sequence[float],
    tolerance: float | None = None,
) -> list[WitnessReport]:
    """Evaluate the condition on s|psi><psi| + (1-s)/D * I over a grid of s."""
    return [
        evaluate_condition(condition, white_noise_mix(psi, s), ops, tolerance=tolerance)
        for s in s_values
    ]


def noise_threshold(
    psi: PureState,
    ops: Sequence,
    condition: str,
    tolerance: float | None = None,
    s_tol: float = 1e-10,
    check_monotone: bool = True,
) -> float | None:
    """Smallest noise weight s at which the condition flips to violated.

    For white-noise mixtures the margin is monotone in s (the lhs is linear
    and each rhs term has the form sqrt(alpha*s + beta*(1-s))); this is
    verified numerically on a coarse grid before bisecting on the report's
    ``violated`` verdict (margin > tolerance) to within ``s_tol``, so the
    reports just above and below the threshold agree with it.  Returns None
    when no violation occurs on [0, 1].
    """

    def report(s: float) -> WitnessReport:
        return evaluate_condition(condition, white_noise_mix(psi, s), ops, tolerance=tolerance)

    if check_monotone:
        grid = np.linspace(0.0, 1.0, 21)
        margins = np.array([report(s).margin for s in grid])
        if np.any(np.diff(margins) < -1e-9):
            raise ValidationError(
                "margin is not monotone in the noise weight; bisection is unreliable here"
            )
    if not report(1.0).violated:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > s_tol:
        mid = 0.5 * (lo + hi)
        if report(mid).violated:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)

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
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import NumericalConsistencyError, ShapeError, ValidationError
from .linalg import _as_square, kron_all
# white_noise_mix is unused here but stays part of this module's namespace,
# where callers look it up.
from .states import DensityMatrix, PureState, _check_weight, white_noise_mix  # noqa: F401

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


def _check_factors(dims: Sequence[int], ops: Sequence) -> list[np.ndarray]:
    if len(ops) != len(dims):
        raise ShapeError(f"{len(ops)} operators for {len(dims)} subsystems")
    mats = []
    for k, op in enumerate(ops):
        m = _as_square(op)
        if m.shape[0] != dims[k]:
            raise ShapeError(f"operator {k} has dimension {m.shape[0]}, subsystem has {dims[k]}")
        mats.append(m)
    return mats


def _expect_pure(amplitudes: np.ndarray, dims: Sequence[int], factors) -> complex:
    # Apply each factor to its own axis of the amplitude tensor, then take
    # one inner product: O(D * sum(d)) work, and the D x D composite
    # operator is never formed.
    out = amplitudes
    pre, post = 1, amplitudes.size
    for f, d in zip(factors, dims):
        post //= d
        out = f @ out.reshape(pre, d, post)
        pre *= d
    return complex(np.vdot(amplitudes, out))


def _expect_density(matrix: np.ndarray, factors) -> complex:
    # Tr(F rho) as an elementwise sum, O(D^2) rather than the O(D^3) product.
    return complex(np.einsum("ij,ji->", kron_all(factors), matrix))


def _expectation(
    state: State, blocks: tuple[tuple[int, ...], tuple[int, ...]] | None = None
) -> tuple[tuple[int, ...], Callable[[Sequence[np.ndarray]], complex]]:
    """Party dimensions and expect(factors), the expectation of a tensor
    product with one factor per party.

    The parties are the state's subsystems, or with ``blocks`` the two
    blocks, each taking its subsystems in the order listed: the state is
    permuted into block order, so a block operator is one factor and no
    D x D embedding is formed.
    """
    pure = isinstance(state, PureState)
    data = state.amplitudes if pure else state.matrix
    dims = state.dims
    if blocks is not None:
        order = [*blocks[0], *blocks[1]]
        axes = order if pure else order + [len(dims) + i for i in order]
        data = data.reshape(dims if pure else dims * 2).transpose(axes).reshape(data.shape)
        dims = tuple(math.prod(dims[i] for i in block) for block in blocks)
    if pure:
        return dims, partial(_expect_pure, data, dims)
    return dims, partial(_expect_density, data)


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
    for block in (left, right):
        if any(b >= a for a, b in zip(block[1:], block)):
            raise ValidationError(f"block {block} must be strictly increasing")
    return left, right


# --- condition terms ------------------------------------------------------------
#
# Each function below returns the factor list of the lhs correlation and,
# per rhs label, the factor lists of the positive expectations whose product
# is that term squared.


def _bi_dagger_terms(l, m, label):
    ld, md = l.conj().T, m.conj().T
    return [ld, m], [(label, [[ld @ l, md @ m]])]


def _bi_product_terms(l, m, label):
    ll, mm = l.conj().T @ l, m.conj().T @ m
    il, im = np.eye(l.shape[0], dtype=complex), np.eye(m.shape[0], dtype=complex)
    return [l, m], [(label, [[ll, im], [il, mm]])]


def _tri_dagger_terms(a, b, c):
    ad, bd, cd = a.conj().T, b.conj().T, c.conj().T
    aa = ad @ a
    return [ad, b, c], [
        ("ab|c", [[aa, b @ bd, cd @ c]]),
        ("ac|b", [[aa, bd @ b, c @ cd]]),
        ("bc|a", [[aa, bd @ b, cd @ c]]),
    ]


def _tri_product_terms(a, b, c):
    ia, ib, ic = (np.eye(m.shape[0], dtype=complex) for m in (a, b, c))
    aa, bb, cc = a.conj().T @ a, b.conj().T @ b, c.conj().T @ c
    return [a, b, c], [
        ("a|bc", [[aa, ib, ic], [ia, bb, cc]]),
        ("b|ac", [[ia, bb, ic], [aa, ib, cc]]),
        ("c|ab", [[ia, ib, cc], [aa, bb, ic]]),
    ]


def _quad_dagger_terms(a, b, c, d):
    ad, bd, cd, dd = (m.conj().T for m in (a, b, c, d))
    aa = ad @ a
    return [ad, b, c, d], [
        ("a|bcd", [[aa, bd @ b, cd @ c, dd @ d]]),
        ("b|acd", [[aa, bd @ b, c @ cd, d @ dd]]),
        ("c|abd", [[aa, b @ bd, cd @ c, d @ dd]]),
        ("d|abc", [[aa, b @ bd, c @ cd, dd @ d]]),
        ("ab|cd", [[aa, b @ bd, cd @ c, dd @ d]]),
        ("ac|bd", [[aa, bd @ b, c @ cd, dd @ d]]),
        ("ad|bc", [[aa, bd @ b, cd @ c, d @ dd]]),
    ]


_MULTIPARTITE_TERMS = {
    "tri-product": _tri_product_terms,
    "tri-dagger": _tri_dagger_terms,
    "quad-dagger": _quad_dagger_terms,
}


def _prepare(name: str, state: State, ops: Sequence, blocks=None):
    """expect() on the state, and the lhs and rhs factor lists of the named
    condition for the given operators."""
    n = len(state.dims)
    if name in ("bi1", "bi2"):
        left, right = _check_blocks(state, blocks)
        dims, expect = _expectation(state, (left, right))
        build = _bi_dagger_terms if name == "bi1" else _bi_product_terms
        return (expect, *build(*_check_factors(dims, ops), _block_label(left, n)))
    if n != _ARITY[name]:
        raise ShapeError(f"condition {name!r} needs {_ARITY[name]} subsystems, got {n}")
    dims, expect = _expectation(state)
    return (expect, *_MULTIPARTITE_TERMS[name](*_check_factors(dims, ops)))


def _evaluate(name: str, state: State, ops: Sequence, tolerance, blocks=None) -> WitnessReport:
    tol = _resolve_tolerance(tolerance)
    expect, lhs_factors, rhs = _prepare(name, state, ops, blocks)
    terms = []
    for label, groups in rhs:
        square = 1.0
        for factors in groups:
            square *= _positive(expect(factors), tol, label)
        terms.append((label, math.sqrt(square)))
    return _build_report(abs(expect(lhs_factors)), terms, tol)


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
    return _evaluate("bi1", state, (op_left, op_right), tolerance, blocks)


def bipartite_product(
    state: State,
    op_left,
    op_right,
    blocks: Sequence[Sequence[int]] | None = None,
    tolerance: float | None = None,
) -> WitnessReport:
    """Separability condition |⟨LM⟩|² <= ⟨L†L⟩⟨M†M⟩ across a bipartition."""
    return _evaluate("bi2", state, (op_left, op_right), tolerance, blocks)


def tripartite_dagger(
    state: State, op_a, op_b, op_c, tolerance: float | None = None
) -> WitnessReport:
    """Dagger-form genuine tripartite entanglement condition.

    lhs = |⟨A†BC⟩|; one rhs term per bipartition, as listed in the module
    docstring.  ``violated`` certifies genuine tripartite entanglement.
    """
    return _evaluate("tri-dagger", state, (op_a, op_b, op_c), tolerance)


def tripartite_product(
    state: State, op_a, op_b, op_c, tolerance: float | None = None
) -> WitnessReport:
    """Product-form genuine tripartite entanglement condition.

    lhs = |⟨ABC⟩|; each rhs term is the square root of a product of a local
    second moment with a joint second moment of the complementary pair.
    """
    return _evaluate("tri-product", state, (op_a, op_b, op_c), tolerance)


def quadripartite_dagger(
    state: State, op_a, op_b, op_c, op_d, tolerance: float | None = None
) -> WitnessReport:
    """Dagger-form genuine quadripartite entanglement condition.

    lhs = |⟨A†BCD⟩|; seven rhs terms, one per bipartition of four
    subsystems.  ``violated`` certifies genuine 4-partite entanglement.
    """
    return _evaluate("quad-dagger", state, (op_a, op_b, op_c, op_d), tolerance)


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


def _check_arity(name: str, ops: Sequence) -> None:
    arity = condition_arity(name)
    if len(ops) != arity:
        raise ValidationError(f"condition {name!r} takes {arity} operators, got {len(ops)}")


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
    _check_arity(name, ops)
    if name == "bi1":
        return bipartite_dagger(state, ops[0], ops[1], blocks=blocks, tolerance=tolerance)
    if name == "bi2":
        return bipartite_product(state, ops[0], ops[1], blocks=blocks, tolerance=tolerance)
    if name == "tri-product":
        return tripartite_product(state, *ops, tolerance=tolerance)
    if name == "tri-dagger":
        return tripartite_dagger(state, *ops, tolerance=tolerance)
    return quadripartite_dagger(state, *ops, tolerance=tolerance)


# --- white-noise family -------------------------------------------------------

# Width in s to which noise_threshold bisects.
_S_RESOLUTION = 1e-15


def _white_noise(
    psi: PureState, ops: Sequence, condition: str, tolerance
) -> Callable[[float], WitnessReport]:
    """report(s): the condition on s|psi><psi| + (1-s)/D * I, 0 <= s <= 1.

    Every expectation is affine in s, ⟨F⟩_s = s⟨F⟩_psi + (1-s) Tr F / D, and
    the trace of a tensor product is the product of the factors' traces, so
    one evaluation on psi fixes the condition for every s.  Reports equal
    those of the density path on ``white_noise_mix(psi, s)`` up to roundoff.
    """
    _check_arity(condition, ops)
    tol = _resolve_tolerance(tolerance)
    expect, lhs_factors, rhs = _prepare(condition, psi, ops)

    def noise(factors) -> complex:
        return math.prod(complex(np.trace(f)) for f in factors) / psi.dim

    lhs_psi, lhs_noise = expect(lhs_factors), noise(lhs_factors)
    # Per rhs label, one (on psi, on noise) pair per positive expectation.
    pairs = [
        (label, [(_positive(expect(f), tol, label), max(noise(f).real, 0.0)) for f in groups])
        for label, groups in rhs
    ]

    def report(s: float) -> WitnessReport:
        terms = [
            (label, math.sqrt(math.prod(s * x + (1.0 - s) * y for x, y in xy)))
            for label, xy in pairs
        ]
        return _build_report(abs(s * lhs_psi + (1.0 - s) * lhs_noise), terms, tol)

    return report


def noise_margin_curve(
    psi: PureState,
    ops: Sequence,
    condition: str,
    s_values: Sequence[float],
    tolerance: float | None = None,
) -> list[WitnessReport]:
    """Evaluate the condition on s|psi><psi| + (1-s)/D * I over a grid of s.

    Each report equals ``evaluate_condition(condition, white_noise_mix(psi,
    s), ops, tolerance)`` up to roundoff; no density matrix is formed.
    Raises ValidationError for an s outside [0, 1].
    """
    weights = [_check_weight(s) for s in s_values]
    report = _white_noise(psi, ops, condition, tolerance)
    return [report(s) for s in weights]


def noise_threshold(
    psi: PureState,
    ops: Sequence,
    condition: str,
    tolerance: float | None = None,
) -> float | None:
    """Smallest noise weight s at which the condition is violated.

    Returns inf{s in [0, 1] : margin(s) > tolerance} on the family
    s|psi><psi| + (1-s)/D * I, to within 1e-15 and from above, so the report
    at the returned s is violated; None when no s in [0, 1] is violated.

    The margin need not be monotone in s, but the verdict is.  For each rhs
    term, lhs(s) - term(s) is convex (|affine| is convex; sqrt(affine) and
    sqrt(affine * affine) are concave), so the s where it stays at or below
    the tolerance form one interval.  At s = 0, the maximally mixed state,
    every term equals sqrt(prod_k Tr X_k†X_k / D) >= |lhs| by Cauchy-Schwarz,
    so each interval contains 0 and the violated set is (s*, 1] or empty;
    s* is bisected on the closed form.
    """
    report = _white_noise(psi, ops, condition, tolerance)
    if not report(1.0).violated:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > _S_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if report(mid).violated:
            hi = mid
        else:
            lo = mid
    return hi

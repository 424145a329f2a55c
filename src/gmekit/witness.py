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

Each form is one rule applied once per bipartition, which also gives the
quadripartite dagger form (seven terms bounding |⟨A†BCD⟩|) and the
bipartite conditions (two parties, one operator per block):

  dagger rule   A enters as A†A; an operator X in A's block enters
                reversed as XX†, and one in the opposite block as X†X, all
                in one expectation (the ab|cd term is ⟨A†A BB† C†C D†D⟩^1/2)
  product rule  (⟨∏ X†X over the block⟩ ⟨∏ X†X over the rest⟩)^1/2

Terms are labelled block|rest in ``states.all_bipartitions`` order; the
bipartite label is the given blocks'.  tri-dagger is the exception: it
names the complement first and lists the bipartitions in reverse order
(ab|c, ac|b, bc|a).

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
from functools import cache, partial
from itertools import islice
from operator import itemgetter

import numpy as np

from .exceptions import NumericalConsistencyError, ShapeError, ValidationError
from .linalg import _as_square, kron_all
from .states import DensityMatrix, PureState, _check_weight, all_bipartitions
# white_noise_mix is unused here but stays part of this module's namespace,
# where callers look it up.
from .states import white_noise_mix  # noqa: F401

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
    if not 0 <= tol < math.inf:
        raise ValidationError(f"tolerance must be finite and nonnegative, got {tol}")
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
    mats = []
    for k, op in enumerate(ops):
        m = _as_square(op)
        if m.shape[0] != dims[k]:
            raise ShapeError(f"operator {k} has dimension {m.shape[0]}, subsystem has {dims[k]}")
        mats.append(m)
    return mats


def _expect_rows(rows: np.ndarray, dims: Sequence[int], factor_lists) -> list[complex]:
    # sum_j <r_j|F|r_j> over the rows of an (r, D) array for each factor list
    # F: each factor acts on its own axis, then one inner product is taken,
    # O(r * D * sum(d)) per list and no D x D operator.  Lists that begin with
    # the same factor objects share the products of that prefix, short of the
    # last factor, keyed by the prefix's ids, which are unique within one call.
    partial_products = {}
    values = []
    for factors in factor_lists:
        out, key = rows, ()
        pre, post = rows.shape
        for f, d in zip(factors[:-1], dims):
            post //= d
            key += (id(f),)
            if key not in partial_products:
                partial_products[key] = f @ out.reshape(pre, d, post)
            out = partial_products[key]
            pre *= d
        values.append(complex(np.vdot(rows, factors[-1] @ out.reshape(pre, dims[-1], 1))))
    return values


def _expect_mixed(factors, dim: int) -> complex:
    """Tr(F)/D, the expectation on the maximally mixed state I/D; the trace
    of a tensor product is the product of the factors' traces."""
    return math.prod(complex(np.trace(f)) for f in factors) / dim


def _expect_mixture(rows: np.ndarray, dims: Sequence[int], noise: float, lists) -> list[complex]:
    values = _expect_rows(rows, dims, lists)
    return [v + noise * _expect_mixed(f, rows.shape[1]) for v, f in zip(values, lists)]


def _expect_density(matrix: np.ndarray, factor_lists) -> list[complex]:
    # Tr(F rho) as an elementwise sum, O(D^2) rather than the O(D^3) product.
    return [complex(np.einsum("ij,ji->", kron_all(f), matrix)) for f in factor_lists]


def _expectation(
    state: State, blocks: tuple[tuple[int, ...], tuple[int, ...]] | None = None
) -> tuple[tuple[int, ...], Callable[[Sequence[Sequence[np.ndarray]]], list[complex]]]:
    """Party dimensions and expect(factor_lists), the expectations of
    tensor products with one factor per party, one value per list.

    The parties are the state's subsystems, or with ``blocks`` the two
    blocks, each taking its subsystems in the order listed: the state is
    permuted into block order, so a block operator is one factor and no
    D x D embedding is formed.  A pure state is one row, and a mixture
    sum_j w_j|psi_j><psi_j| + mu*I/D built by :mod:`gmekit.states` is the
    rows sqrt(w_j)*psi_j plus mu times Tr(F)/D; lists share the products of
    common leading factors.  Only a matrix given by the caller is traced
    against the D x D product, one ``kron_all`` per list.
    """
    if isinstance(state, PureState):
        rows, noise = state.amplitudes[None], 0.0
    else:
        rows, noise = state._rows, state._noise
    data = state.matrix if rows is None else rows
    dims = state.dims
    if blocks is not None:
        order = [*blocks[0], *blocks[1]]
        if rows is None:  # both indices of the matrix
            shape, axes = dims * 2, order + [len(dims) + i for i in order]
        else:
            shape, axes = (-1, *dims), [0] + [1 + i for i in order]
        data = data.reshape(shape).transpose(axes).reshape(data.shape)
        dims = tuple(math.prod(dims[i] for i in block) for block in blocks)
    if rows is None:
        return dims, partial(_expect_density, data)
    if noise:
        return dims, partial(_expect_mixture, data, dims, noise)
    return dims, partial(_expect_rows, data, dims)


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


# --- condition rules ------------------------------------------------------------
#
# A rule maps the left block of a bipartition to the forms the operators X
# take in the lhs correlation and, for that bipartition's rhs term, in the
# factor lists of the positive expectations whose product is the term
# squared.  Each condition is compiled once, at import, into the (party,
# form) matrices a call makes and getters of its factor lists from them.

# How a call makes each form other than X and X†.
_FORMS = {
    "X†X": lambda x, xd: xd @ x,
    "XX†": lambda x, xd: x @ xd,
    "I": lambda x, xd: _eye(x.shape[0]),
}


@cache
def _eye(dim: int) -> np.ndarray:
    eye = np.eye(dim, dtype=complex)
    eye.flags.writeable = False
    return eye


def _dagger_terms(n: int, left: Sequence[int]):
    """The dagger rule of the module docstring; A is party 0."""
    rest = ["XX†" if (k in left) == (0 in left) else "X†X" for k in range(1, n)]
    return ["X†"] + ["X"] * (n - 1), [["X†X"] + rest]


def _product_terms(n: int, left: Sequence[int]):
    """The product rule of the module docstring."""
    groups = [["X†X" if (k in left) == side else "I" for k in range(n)] for side in (True, False)]
    return ["X"] * n, groups


def _compile(evaluator: str, n: int, rule, labels: Sequence[str]):
    """(evaluator name, arity, labels, the (party, form) products a call
    makes, lhs getter, per-label tuples of rhs getters).  The getters index
    the operators, then their adjoints, then the products."""
    slots = {(k % n, "X" if k < n else "X†"): k for k in range(2 * n)}

    def getter(forms) -> itemgetter:
        return itemgetter(*(slots.setdefault(key, len(slots)) for key in enumerate(forms)))

    terms = [rule(n, [_LETTERS.index(c) for c in label.split("|")[0]]) for label in labels]
    lhs = getter(terms[0][0])
    rhs = tuple(tuple(map(getter, groups)) for _, groups in terms)
    return evaluator, n, tuple(labels), tuple(slots)[2 * n :], lhs, rhs


_BLOCK_LABELS = {n: [_block_label(b, n) for b in all_bipartitions(n)] for n in (2, 3, 4)}

_CONDITIONS = {
    "bi1": _compile("bipartite_dagger", 2, _dagger_terms, _BLOCK_LABELS[2]),
    "bi2": _compile("bipartite_product", 2, _product_terms, _BLOCK_LABELS[2]),
    "tri-product": _compile("tripartite_product", 3, _product_terms, _BLOCK_LABELS[3]),
    # Complement first, in reverse order: the exception to block labels.
    "tri-dagger": _compile("tripartite_dagger", 3, _dagger_terms, ["ab|c", "ac|b", "bc|a"]),
    "quad-dagger": _compile("quadripartite_dagger", 4, _dagger_terms, _BLOCK_LABELS[4]),
}

CONDITION_NAMES = tuple(_CONDITIONS)


def _lookup(name: str, ops: Sequence | None = None):
    """The named condition's table entry; with ``ops``, checked to be one
    per slot."""
    if name not in _CONDITIONS:
        raise ValidationError(f"unknown condition {name!r}; choose from {CONDITION_NAMES}")
    entry = _CONDITIONS[name]
    if ops is not None and len(ops) != entry[1]:
        raise ValidationError(f"condition {name!r} takes {entry[1]} operators, got {len(ops)}")
    return entry


def condition_arity(name: str) -> int:
    """Number of operator slots the named condition takes."""
    return _lookup(name)[1]


def _prepare(name: str, state: State, ops: Sequence, blocks=None):
    """expect() on the state; the named condition's factor lists for the
    given operators, lhs first; and (label, number of lists) per rhs term."""
    _, arity, labels, products, lhs, rhs = _lookup(name, ops)
    n = len(state.dims)
    if arity == 2:
        blocks = _check_blocks(state, blocks)
        labels = (_block_label(blocks[0], n),)
    elif n != arity:
        raise ShapeError(f"condition {name!r} needs {arity} subsystems, got {n}")
    dims, expect = _expectation(state, blocks)
    xs = _check_factors(dims, ops)
    xds = [x.conj().T for x in xs]
    mats = [*xs, *xds] + [_FORMS[form](xs[k], xds[k]) for k, form in products]
    lists = [lhs(mats)] + [get(mats) for groups in rhs for get in groups]
    return expect, lists, [(label, len(groups)) for label, groups in zip(labels, rhs)]


def _evaluate(name: str, state: State, ops: Sequence, tolerance, blocks=None) -> WitnessReport:
    tol = _resolve_tolerance(tolerance)
    expect, lists, shape = _prepare(name, state, ops, blocks)
    values = iter(expect(lists))
    lhs, terms = next(values), []
    for label, k in shape:
        square = 1.0
        for _ in range(k):
            square *= _positive(next(values), tol, label)
        terms.append((label, math.sqrt(square)))
    return _build_report(abs(lhs), terms, tol)


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


def evaluate_condition(
    name: str,
    state: State,
    ops: Sequence,
    tolerance: float | None = None,
    blocks: Sequence[Sequence[int]] | None = None,
) -> WitnessReport:
    """Evaluate a condition selected by name.

    ``bi1``/``bi2`` take (L, M) plus optional ``blocks``; the multipartite
    conditions take one operator per subsystem and no ``blocks``
    (ValidationError if given).
    """
    evaluator, arity, *_ = _lookup(name, ops)
    # Looked up as a module attribute, so a replaced evaluator sees the call.
    evaluate = globals()[evaluator]
    if arity == 2:
        return evaluate(state, *ops, blocks=blocks, tolerance=tolerance)
    if blocks is not None:
        raise ValidationError(f"condition {name!r} takes no blocks")
    return evaluate(state, *ops, tolerance=tolerance)


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
    tol = _resolve_tolerance(tolerance)
    expect, lists, shape = _prepare(condition, psi, ops)
    lhs_psi, *on_psi = expect(lists)
    lhs_noise, *on_noise = [_expect_mixed(f, psi.dim) for f in lists]
    # Per rhs label, one (on psi, on noise) pair per positive expectation.
    values = zip(on_psi, on_noise)
    pairs = [
        (label, [(_positive(x, tol, label), max(y.real, 0.0)) for x, y in islice(values, k)])
        for label, k in shape
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

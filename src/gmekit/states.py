"""Multi-subsystem state constructors and the JSON state-file loader.

States carry their subsystem dimensions explicitly, since every condition in
:mod:`gmekit.witness` is defined relative to a tensor factorisation.  Pure
states are unit vectors; density matrices are hermitian, unit-trace and
positive semidefinite.  A matrix given by the caller has all three
invariants checked at construction.  The constructors here build mixtures
sum_j w_j|psi_j><psi_j| + mu*I/D, which hold them by construction, so they
check only the weights and the components (see :class:`DensityMatrix`).
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateStateError, ShapeError, ValidationError
from .linalg import basis_index

NORM_ATOL = 1e-12
DENSITY_ATOL = 1e-10


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if len(dims) == 0 or any(d < 2 for d in dims):
        raise ValidationError(f"subsystem dimensions must all be >= 2, got {dims}")
    return dims


def _frozen_array(a, dtype=complex) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalised state vector on subsystems of the given dimensions.

    Attributes
    ----------
    dims : tuple of int
        Dimension of each subsystem, in tensor order.
    amplitudes : ndarray
        Flat complex amplitude vector of length prod(dims), unit 2-norm
        within 1e-12.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = _check_dims(self.dims)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] != int(np.prod(dims)):
            raise ShapeError(
                f"amplitude vector of length {amps.shape} does not match dims {dims}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValidationError(f"state norm {norm!r} is not 1 within {NORM_ATOL}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", _frozen_array(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem."""
        return self.amplitudes.reshape(self.dims)

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix._mixture(self.dims, [1.0], self.amplitudes[None])


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix on subsystems of the given dimensions.

    ``DensityMatrix(dims, matrix)`` checks hermiticity (1e-10 entrywise),
    unit trace (1e-10) and positivity (smallest eigenvalue >= -1e-10, an
    O(D^3) ``eigvalsh``).

    :func:`white_noise_mix`, :func:`random_biseparable`,
    :meth:`PureState.density_matrix` and the state-file kinds ``white_noise``
    and ``mixture`` build sum_j w_j|psi_j><psi_j| + mu*I/D instead, which is
    hermitian and positive by construction.  They check only w >= 0,
    mu >= 0, unit-norm psi_j and sum(w) + mu = 1, and keep the rows
    sqrt(w_j)*psi_j and mu for :mod:`gmekit.witness`, which then forms no
    D x D operator.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)
    # sqrt(w_j)*psi_j, one row per component, and mu; None and 0 for a
    # matrix given by the caller.
    _rows: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _noise: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = _check_dims(self.dims)
        mat = np.asarray(self.matrix, dtype=complex)
        total = int(np.prod(dims))
        if mat.shape != (total, total):
            raise ShapeError(f"matrix shape {mat.shape} does not match dims {dims}")
        if np.max(np.abs(mat - mat.conj().T)) > DENSITY_ATOL:
            raise ValidationError("density matrix is not hermitian within 1e-10")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > DENSITY_ATOL:
            raise ValidationError(f"density matrix trace {tr!r} is not 1 within 1e-10")
        if np.linalg.eigvalsh(mat).min() < -DENSITY_ATOL:
            raise ValidationError("density matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", _frozen_array(mat))

    @classmethod
    def _mixture(cls, dims, weights, components, noise: float = 0.0) -> "DensityMatrix":
        """sum_j weights[j] |components[j]><components[j]| + noise * I/D."""
        dims = _check_dims(dims)
        total = int(np.prod(dims))
        w = np.asarray(weights, dtype=float)
        psis = np.asarray(components, dtype=complex)
        noise = float(noise)
        if psis.shape != (w.size, total) or w.ndim != 1:
            raise ShapeError(f"weights {w.shape} and components {psis.shape} do not match {dims}")
        if not (np.isfinite(w).all() and np.isfinite(psis).all() and math.isfinite(noise)):
            raise ValidationError("mixture weights and components must be finite")
        if (w < 0).any() or noise < 0:
            raise ValidationError("mixture weights must be nonnegative")
        if (np.abs(np.linalg.norm(psis, axis=1) - 1.0) > NORM_ATOL).any():
            raise ValidationError(f"mixture components must have unit norm within {NORM_ATOL}")
        if abs(w.sum() + noise - 1.0) > DENSITY_ATOL:
            raise ValidationError(f"mixture weights sum to {w.sum() + noise!r}, not 1 within 1e-10")
        rows = _frozen_array(np.sqrt(w)[:, None] * psis)
        mat = rows.T @ rows.conj()
        mat[np.diag_indices(total)] += noise / total
        mat.setflags(write=False)
        state = object.__new__(cls)
        for name, value in {"dims": dims, "matrix": mat, "_rows": rows, "_noise": noise}.items():
            object.__setattr__(state, name, value)
        return state

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def superposition(
    dims: Sequence[int],
    terms: Sequence[tuple[complex, Sequence[int]]],
) -> PureState:
    """Build a normalised superposition of basis states.

    Parameters
    ----------
    dims : sequence of int
        Subsystem dimensions.
    terms : sequence of (coefficient, occupation)
        Each occupation is a tuple of basis labels, one per subsystem.
        Repeated occupations accumulate.  The result is normalised, so
        coefficients may be given unnormalised.

    Raises
    ------
    DegenerateStateError
        If the accumulated coefficients are all zero.
    IndexError
        If an occupation label is outside its subsystem dimension.
    """
    dims = _check_dims(dims)
    vec = np.zeros(int(np.prod(dims)), dtype=complex)
    for coeff, occupation in terms:
        vec[basis_index(dims, occupation)] += complex(coeff)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise DegenerateStateError("superposition coefficients are all zero")
    return PureState(dims, vec / norm)


def _check_weight(s) -> float:
    """The white-noise mixing weight s as a float, which must lie in [0, 1]."""
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"mixing weight s={s!r} must lie in [0, 1]")
    return s


def white_noise_mix(psi: PureState, s: float) -> DensityMatrix:
    """Mix a pure state with white noise: s*|psi><psi| + (1-s)/D * I.

    D is the total Hilbert-space dimension (8 for three qubits, 16 for
    four).  s=1 gives the pure projector, s=0 the maximally mixed state.
    """
    s = _check_weight(s)
    return DensityMatrix._mixture(psi.dims, [s], psi.amplitudes[None], 1.0 - s)


def haar_random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector: normalised standard complex Gaussians."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def all_bipartitions(n_subsystems: int) -> tuple[tuple[int, ...], ...]:
    """Canonical blocks for every bipartition of n subsystems.

    Each bipartition is represented by one block (the complement is
    implied).  Blocks of size <= n/2 are listed, and for even splits only
    those containing subsystem 0, so each bipartition appears exactly once:
    3 entries for n=3, 7 for n=4.
    """
    if n_subsystems < 2:
        raise ValidationError("need at least two subsystems to bipartition")
    blocks = []
    for size in range(1, n_subsystems // 2 + 1):
        for combo in itertools.combinations(range(n_subsystems), size):
            if 2 * size == n_subsystems and 0 not in combo:
                continue
            blocks.append(combo)
    return tuple(blocks)


def _check_block(block: Sequence[int], n: int) -> tuple[int, ...]:
    block = tuple(sorted(int(i) for i in block))
    if len(block) == 0 or len(block) >= n:
        raise ValidationError(f"bipartition block {block} must be a nonempty proper subset")
    if len(set(block)) != len(block) or block[0] < 0 or block[-1] >= n:
        raise ValidationError(f"bipartition block {block} has invalid subsystem indices")
    return block


def _product_across(
    dims: tuple[int, ...], block: tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Haar-random pure state, product across block|complement."""
    rest = tuple(i for i in range(len(dims)) if i not in block)
    d_block = int(np.prod([dims[i] for i in block]))
    d_rest = int(np.prod([dims[i] for i in rest]))
    v1 = haar_random_state(d_block, rng)
    v2 = haar_random_state(d_rest, rng)
    tensor = np.outer(v1, v2).reshape(
        [dims[i] for i in block] + [dims[i] for i in rest]
    )
    # Undo the block-first axis layout so subsystems sit in natural order.
    order = list(block) + list(rest)
    return tensor.transpose(np.argsort(order)).reshape(-1)


def random_biseparable(
    dims: Sequence[int],
    partitions: Sequence[Sequence[int]],
    mixture_size: int,
    seed: int | np.random.Generator,
) -> DensityMatrix:
    """Random convex mixture of bipartition-separable pure states.

    Component j is a product of Haar-random pure states across
    ``partitions[j % len(partitions)]`` (round robin), so passing
    :func:`all_bipartitions` with ``mixture_size >= len(partitions)`` covers
    every bipartition.  Mixture weights are exponential transforms of
    uniform draws, normalised, which is the uniform distribution on the
    simplex.  Output is deterministic given an integer seed; a Generator
    may be passed instead to continue an existing stream.
    """
    dims = _check_dims(dims)
    n = len(dims)
    if int(mixture_size) < 1:
        raise ValidationError(f"mixture_size must be >= 1, got {mixture_size}")
    blocks = [_check_block(p, n) for p in partitions]
    if not blocks:
        raise ValidationError("need at least one bipartition")
    rng = np.random.default_rng(seed)
    weights = -np.log(rng.uniform(size=int(mixture_size)))
    weights /= weights.sum()
    components = [_product_across(dims, blocks[j % len(blocks)], rng) for j in range(weights.size)]
    return DensityMatrix._mixture(dims, weights, components)


# --- JSON state-file format -------------------------------------------------
#
# {
#   "dims": [2, 2, 2],
#   "kind": "pure" | "white_noise" | "mixture",
#   "terms": [{"occupation": [0, 1, 1], "re": 0.7071, "im": 0.0}, ...],
#   "s": 0.6,                      # white_noise only
#   "components": [{"weight": 0.5, "terms": [...]}, ...]   # mixture only
# }


def _terms_from_doc(raw) -> list[tuple[complex, tuple[int, ...]]]:
    if not isinstance(raw, list) or not raw:
        raise ValidationError("state file field 'terms' must be a nonempty array")
    out = []
    for entry in raw:
        try:
            occ = tuple(int(i) for i in entry["occupation"])
            coeff = complex(float(entry["re"]), float(entry.get("im", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed state-file term {entry!r}") from exc
        out.append((coeff, occ))
    return out


def state_from_dict(doc: dict) -> PureState | DensityMatrix:
    """Build a state from a parsed state-file document (see module source)."""
    try:
        dims = _check_dims(doc["dims"])
        kind = doc["kind"]
    except KeyError as exc:
        raise ValidationError(f"state file missing field {exc.args[0]!r}") from exc
    if kind == "pure":
        return superposition(dims, _terms_from_doc(doc.get("terms")))
    if kind == "white_noise":
        if "s" not in doc:
            raise ValidationError("white_noise state file requires field 's'")
        return white_noise_mix(superposition(dims, _terms_from_doc(doc.get("terms"))), doc["s"])
    if kind == "mixture":
        components = doc.get("components")
        if not isinstance(components, list) or not components:
            raise ValidationError("mixture state file requires a nonempty 'components' array")
        weights = []
        pures = []
        for comp in components:
            try:
                w = float(comp["weight"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"malformed mixture component {comp!r}") from exc
            if w < 0:
                raise ValidationError("mixture weights must be nonnegative")
            weights.append(w)
            pures.append(superposition(dims, _terms_from_doc(comp.get("terms"))).amplitudes)
        total_w = sum(weights)
        if total_w <= 0:
            raise ValidationError("mixture weights must not all be zero")
        return DensityMatrix._mixture(dims, np.divide(weights, total_w), pures)
    raise ValidationError(f"unknown state kind {kind!r}")


def load_state(path) -> PureState | DensityMatrix:
    """Load a state from a JSON file (format documented in this module)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError("state file must contain a JSON object")
    return state_from_dict(doc)

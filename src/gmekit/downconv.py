"""Trilinear parametric down-conversion on its conserved sector.

The model couples a pump mode to two down-converted modes,

    H = w1*a†a + w2*b†b + w3*c†c + g*(a†bc + ab†c†),

and conserves 2*Na + Nb + Nc.  Starting from |N, 0, 0> the dynamics stays in
the (N+1)-dimensional sector spanned by |N-n, n, n>, where H restricts to a
hermitian tridiagonal matrix with

    diagonal  n:      w1*(N-n) + (w2+w3)*n
    coupling  n,n+1:  g * sqrt(N-n) * (n+1).

Evolution is exact per time point (eigendecomposition, no stepping error).
The sector witness pairs |N-n, n, n> with |N-n-1, n+1, n+1> for even n; each
pair contributes |c_n* c_{n+1}| and the corresponding rhs expectations vanish
identically on the sector, so any nonzero pair correlation certifies genuine
tripartite entanglement of the three modes.  For even N the last state
|0, N, N> has no partner, so c_N never enters the summed witness.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ShapeError, ValidationError
from .linalg import basis_index
from .operators import block_ops, block_sum
from .states import PureState
from .witness import WitnessReport, tripartite_dagger

NORM_ATOL = 1e-10


@dataclass(frozen=True)
class DownConversionParams:
    """Model parameters: initial pump photon number (even), mode angular
    frequencies, and the trilinear coupling, all in rad/time units."""

    pump_photons: int
    omega1: float = 0.0
    omega2: float = 0.0
    omega3: float = 0.0
    coupling: float = 1.0

    def __post_init__(self):
        n = int(self.pump_photons)
        if n < 2 or n % 2 != 0:
            raise ValidationError(
                f"pump photon number must be even and >= 2, got {self.pump_photons}"
            )
        object.__setattr__(self, "pump_photons", n)


@dataclass(frozen=True)
class SubspaceAmplitudes:
    """Sector amplitudes c_n(t) of |N-n, n, n>, unit norm within 1e-10."""

    pump_photons: int
    time: float
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = int(self.pump_photons)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] != n + 1:
            raise ShapeError(f"expected {n + 1} amplitudes, got shape {amps.shape}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValidationError(f"amplitude norm {norm!r} is not 1 within {NORM_ATOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "pump_photons", n)
        object.__setattr__(self, "amplitudes", amps)

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def subspace_hamiltonian(params: DownConversionParams) -> np.ndarray:
    """Hamiltonian restricted to the conserved sector, (N+1) x (N+1)."""
    n_pump = params.pump_photons
    ns = np.arange(n_pump + 1, dtype=float)
    diag = params.omega1 * (n_pump - ns) + (params.omega2 + params.omega3) * ns
    off = params.coupling * np.sqrt(n_pump - ns[:-1]) * (ns[:-1] + 1.0)
    h = np.diag(diag).astype(complex)
    h += np.diag(off, k=1) + np.diag(off, k=-1)
    return h


def evolve(params: DownConversionParams, t: float) -> SubspaceAmplitudes:
    """Sector amplitudes at time t, starting from |N, 0, 0>."""
    return next(time_series(params, [t]))


def time_series(
    params: DownConversionParams, times: Iterable[float]
) -> Iterator[SubspaceAmplitudes]:
    """Evolve over many time points, diagonalising the Hamiltonian once."""
    h = subspace_hamiltonian(params)
    w, u = np.linalg.eigh(h)
    weights = u.conj().T[:, 0]  # overlap of eigenvectors with |N,0,0>
    for t in times:
        if not np.isfinite(t):
            raise ValidationError(f"time must be finite, got {t!r}")
        c = u @ (np.exp(-1j * w * float(t)) * weights)
        yield SubspaceAmplitudes(params.pump_photons, float(t), c)


def to_pure_state(amps: SubspaceAmplitudes) -> PureState:
    """Embed sector amplitudes into the full three-mode truncated space."""
    n_pump = amps.pump_photons
    dims = (n_pump + 1,) * 3
    vec = np.zeros(int(np.prod(dims)), dtype=complex)
    for n, cn in enumerate(amps.amplitudes):
        vec[basis_index(dims, (n_pump - n, n, n))] = cn
    return PureState(dims, vec / np.linalg.norm(vec))


def even_pair_sum(amps: SubspaceAmplitudes) -> complex:
    """Closed form of the summed witness lhs: sum of c_n* c_{n+1}, n even."""
    c = amps.amplitudes
    return complex(sum(np.conj(c[n]) * c[n + 1] for n in range(0, amps.pump_photons - 1, 2)))


def witness(amps: SubspaceAmplitudes, tolerance: float | None = None) -> WitnessReport:
    """Genuine-tripartite-entanglement report from the summed block operators.

    The lhs equals |sum over even n of c_n* c_{n+1}| and the rhs expectations
    are evaluated on the reconstructed state rather than assumed zero.
    """
    state = to_pure_state(amps)
    op_a, op_b, op_c = block_sum(amps.pump_photons)
    return tripartite_dagger(state, op_a, op_b, op_c, tolerance=tolerance)


def block_witness(
    amps: SubspaceAmplitudes, n: int, tolerance: float | None = None
) -> WitnessReport:
    """Single-pair witness for the block {n, n+1}; lhs = |c_n* c_{n+1}|.

    Useful when phase cancellation zeroes the summed witness but individual
    pair correlations survive.
    """
    state = to_pure_state(amps)
    op_a, op_b, op_c = block_ops(amps.pump_photons, n)
    return tripartite_dagger(state, op_a, op_b, op_c, tolerance=tolerance)


def sweep_rows(
    params: DownConversionParams,
    times: Sequence[float],
    tolerance: float | None = None,
) -> tuple[list[str], list[list]]:
    """Header and rows for the time-series CSV.

    Columns: t, the N+1 populations |c_n|^2, the summed witness lhs, and the
    violation verdict.
    """
    n_pump = params.pump_photons
    header = ["t"] + [f"prob_{n}" for n in range(n_pump + 1)] + ["witness_lhs", "violated"]
    rows = []
    for amps in time_series(params, times):
        report = witness(amps, tolerance=tolerance)
        rows.append(
            [amps.time]
            + [float(p) for p in amps.populations()]
            + [report.lhs, report.violated]
        )
    return header, rows

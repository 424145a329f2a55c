"""Dense complex linear algebra over small multi-subsystem Hilbert spaces.

Indexing convention, fixed package-wide: composite basis states are flattened
row-major in subsystem order, i.e. the occupation (i, j, k) on dimensions
(d0, d1, d2) maps to flat index (i*d1 + j)*d2 + k.  The first subsystem
varies slowest, so |110> on three qubits is index 6.

All functions treat their inputs as immutable and return new arrays.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .exceptions import ShapeError, ValidationError

HERMITICITY_ATOL = 1e-10


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite")
    return m


def _as_square(a) -> np.ndarray:
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def kron_all(factors: Sequence) -> np.ndarray:
    """Tensor product of a sequence of matrices, left to right."""
    out = _as_matrix(factors[0])
    for f in factors[1:]:
        f = _as_matrix(f)
        (r, c), (p, q) = out.shape, f.shape
        # Same entries as np.kron, without its per-call reshaping overhead.
        out = (out[:, None, :, None] * f[None, :, None, :]).reshape(r * p, c * q)
    return out


def is_hermitian(a, atol: float = HERMITICITY_ATOL) -> bool:
    """True when max |a - a†| entry is within atol."""
    a = _as_square(a)
    return bool(np.max(np.abs(a - a.conj().T)) <= atol)


def hermitian_evolve(h, t: float, v) -> np.ndarray:
    """Apply exp(-i*t*h) to the vector v via eigendecomposition of h.

    The spaces handled here are at most a few hundred dimensions, so exact
    diagonalisation is preferred over series or splitting methods.  Norm is
    preserved to machine precision.

    Raises ValidationError if h is not hermitian within 1e-10 (entrywise).
    """
    h = _as_square(h)
    if not is_hermitian(h):
        raise ValidationError("hermitian_evolve requires a hermitian matrix")
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.shape[0] != h.shape[0]:
        raise ShapeError(f"vector shape {v.shape} does not match matrix {h.shape}")
    w, u = np.linalg.eigh(h)
    return u @ (np.exp(-1j * t * w) * (u.conj().T @ v))


def basis_index(dims: Sequence[int], occupation: Sequence[int]) -> int:
    """Flat index of the basis state with the given occupation numbers."""
    if len(occupation) != len(dims):
        raise ShapeError(
            f"occupation has {len(occupation)} entries for {len(dims)} subsystems"
        )
    try:
        return int(np.ravel_multi_index(tuple(occupation), tuple(dims)))
    except ValueError as exc:
        raise IndexError(f"occupation {tuple(occupation)} out of range for dims {tuple(dims)}") from exc


def basis_vector(dims: Sequence[int], occupation: Sequence[int]) -> np.ndarray:
    """Unit vector |occupation> in the composite space."""
    vec = np.zeros(int(np.prod(dims)), dtype=complex)
    vec[basis_index(dims, occupation)] = 1.0
    return vec

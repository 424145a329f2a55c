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

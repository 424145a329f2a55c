"""Single-subsystem operator builders and operator spec strings.

Operators are plain complex ndarrays.  The builders here cover the operator
families the entanglement conditions are typically evaluated with: basis
transfer operators |i><j|, qutrit ladder operators, truncated bosonic
annihilation, and the rank-one photon-block operators used by the
down-conversion witness.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .exceptions import ValidationError
# Unused here; callers look kron_all up in this module's namespace.
from .linalg import kron_all  # noqa: F401

__all__ = [
    "ketbra",
    "sigma_minus",
    "qutrit_lower",
    "qutrit_raise",
    "boson_annihilation",
    "block_ops",
    "block_sum",
    "parse_operator_specs",
]


def ketbra(dim: int, i: int, j: int) -> np.ndarray:
    """The operator |i><j| on a dim-dimensional subsystem."""
    dim = int(dim)
    if not (0 <= i < dim and 0 <= j < dim):
        raise IndexError(f"ketbra indices ({i}, {j}) out of range for dimension {dim}")
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def sigma_minus() -> np.ndarray:
    """Qubit lowering operator |0><1|."""
    return ketbra(2, 0, 1)


def qutrit_lower() -> np.ndarray:
    """Qutrit lowering ladder |0><1| + |1><2|."""
    return ketbra(3, 0, 1) + ketbra(3, 1, 2)


def qutrit_raise() -> np.ndarray:
    """Qutrit raising ladder |1><0| + |2><1|, the adjoint of qutrit_lower."""
    return qutrit_lower().conj().T


def boson_annihilation(cutoff: int) -> np.ndarray:
    """Bosonic annihilation operator truncated to span{|0>, ..., |cutoff>}.

    Entries <n-1|a|n> = sqrt(n); everything above the cutoff is dropped.
    """
    cutoff = int(cutoff)
    if cutoff < 1:
        raise ValidationError(f"cutoff must be >= 1, got {cutoff}")
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=float)), k=1).astype(complex)


def _check_block_index(n_pump: int, n: int) -> tuple[int, int]:
    n_pump = int(n_pump)
    n = int(n)
    if n_pump < 2 or n_pump % 2 != 0:
        raise ValidationError(f"pump photon number must be even and >= 2, got {n_pump}")
    if n % 2 != 0 or not (0 <= n <= n_pump - 2):
        raise ValidationError(
            f"block index n={n} must be even and within [0, {n_pump - 2}]"
        )
    return n_pump, n


def block_ops(n_pump: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-one block operators for the photon pair {n, n+1} at pump number N.

    On three modes truncated at N (each dimension N+1) these are
    |N-n-1><N-n| on the pump mode and |n><n+1| on each down-converted mode.
    n must be even and at most N-2.
    """
    n_pump, n = _check_block_index(n_pump, n)
    dim = n_pump + 1
    op_a = ketbra(dim, n_pump - n - 1, n_pump - n)
    op_b = ketbra(dim, n, n + 1)
    op_c = ketbra(dim, n, n + 1)
    return op_a, op_b, op_c


def block_sum(n_pump: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block operators summed over all even n in [0, N-2]."""
    n_pump = int(n_pump)
    if n_pump < 2 or n_pump % 2 != 0:
        raise ValidationError(f"pump photon number must be even and >= 2, got {n_pump}")
    dim = n_pump + 1
    total = [np.zeros((dim, dim), dtype=complex) for _ in range(3)]
    for n in range(0, n_pump - 1, 2):
        for acc, op in zip(total, block_ops(n_pump, n)):
            acc += op
    return tuple(total)


# Per-subsystem operator spec strings, used by the CLI and state sweeps:
#   "sigma_minus"            qubit lowering operator
#   "ketbra I J"             |I><J| at the subsystem's dimension
#   "qutrit_lower"           |0><1| + |1><2|   (dimension 3 only)
#   "qutrit_raise"           adjoint of qutrit_lower
#   "boson_annihilate C"     annihilation with cutoff C (dimension C+1)
#   "block_sum N"            summed block operator; subsystem position 0/1/2
#                            selects the pump/first/second-mode operator
# A dagger pattern such as "d--" adjoints the flagged operators.


def _parse_one(spec: str, dim: int, position: int) -> np.ndarray:
    tokens = spec.split()
    if not tokens:
        raise ValidationError("empty operator spec")
    name, args = tokens[0], tokens[1:]
    if name == "sigma_minus":
        if args or dim != 2:
            raise ValidationError(f"sigma_minus needs a 2-dimensional subsystem, got {dim}")
        return sigma_minus()
    if name == "ketbra":
        if len(args) != 2:
            raise ValidationError(f"ketbra spec needs two indices, got {spec!r}")
        return ketbra(dim, int(args[0]), int(args[1]))
    if name == "qutrit_lower" or name == "qutrit_raise":
        if args or dim != 3:
            raise ValidationError(f"{name} needs a 3-dimensional subsystem, got {dim}")
        return qutrit_lower() if name == "qutrit_lower" else qutrit_raise()
    if name == "boson_annihilate":
        if len(args) != 1:
            raise ValidationError(f"boson_annihilate spec needs a cutoff, got {spec!r}")
        cutoff = int(args[0])
        if dim != cutoff + 1:
            raise ValidationError(
                f"boson cutoff {cutoff} implies dimension {cutoff + 1}, subsystem has {dim}"
            )
        return boson_annihilation(cutoff)
    if name == "block_sum":
        if len(args) != 1:
            raise ValidationError(f"block_sum spec needs a pump photon number, got {spec!r}")
        if position > 2:
            raise ValidationError("block_sum operators are defined for three subsystems")
        ops = block_sum(int(args[0]))
        if dim != ops[0].shape[0]:
            raise ValidationError(
                f"block_sum {args[0]} implies dimension {ops[0].shape[0]}, subsystem has {dim}"
            )
        return ops[position]
    raise ValidationError(f"unknown operator spec {spec!r}")


def parse_operator_specs(
    specs: Sequence[str],
    dims: Sequence[int],
    dagger_pattern: str | None = None,
) -> list[np.ndarray]:
    """Parse one operator spec string per subsystem (format above)."""
    dims = tuple(int(d) for d in dims)
    if len(specs) != len(dims):
        raise ValidationError(f"{len(specs)} operator specs for {len(dims)} subsystems")
    if dagger_pattern is None:
        dagger_pattern = "-" * len(dims)
    if len(dagger_pattern) != len(dims) or any(c not in "d-" for c in dagger_pattern):
        raise ValidationError(
            f"dagger pattern {dagger_pattern!r} must be one 'd' or '-' per subsystem"
        )
    ops = []
    for k, spec in enumerate(specs):
        op = _parse_one(spec.strip(), dims[k], k)
        if dagger_pattern[k] == "d":
            op = op.conj().T
        ops.append(op)
    return ops

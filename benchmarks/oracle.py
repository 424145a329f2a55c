"""Reference values the benchmark checks gmekit's outputs against.

Nothing here calls gmekit.  Expectations are taken with explicit full
operators (``np.kron``) against a state vector or matrix, white-noise
mixtures use the affine form <X>_s = s<psi|X|psi> + (1-s) Tr X / D, and the
down-conversion amplitudes come from the sector Hamiltonian written out
again from its documented formula.  So a check passes only when the timed
path (einsum contraction, Kronecker density path, threshold bisection)
agrees with a computation that shares none of its code.
"""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np

TRI_FLIP_THRESHOLD = 0.5
QUAD_FLIP_THRESHOLD = (np.sqrt(17.0) - 1.0) / 8.0


def full_operator(factors) -> np.ndarray:
    return reduce(np.kron, factors)


def _bipartition_blocks(n: int):
    """Blocks containing subsystem 0, one per bipartition of n subsystems."""
    for size in range(1, n):
        for combo in itertools.combinations(range(1, n), size - 1):
            yield (0,) + combo


def dagger_terms(ops):
    """lhs factors and rhs factor lists of the n-party dagger form.

    A (subsystem 0) enters as A†A; an operator in A's block as XX†, one in
    the opposite block as X†X.
    """
    n = len(ops)
    dag = [m.conj().T for m in ops]
    lhs = [dag[0]] + list(ops[1:])
    terms = []
    for block in _bipartition_blocks(n):
        facs = [dag[0] @ ops[0]]
        for k in range(1, n):
            facs.append(ops[k] @ dag[k] if k in block else dag[k] @ ops[k])
        terms.append([facs])
    return lhs, terms


def product_terms(ops):
    """lhs factors and rhs factor-list pairs of the tripartite product form."""
    eyes = [np.eye(m.shape[0], dtype=complex) for m in ops]
    sq = [m.conj().T @ m for m in ops]
    terms = []
    for k in range(3):
        single = [sq[j] if j == k else eyes[j] for j in range(3)]
        joint = [eyes[j] if j == k else sq[j] for j in range(3)]
        terms.append([single, joint])
    return list(ops), terms


def _terms(condition: str, ops):
    if condition == "tri-product":
        return product_terms(ops)
    return dagger_terms(ops)


def margin_with(expect, condition: str, ops) -> float:
    """lhs - max rhs, given a function mapping factor lists to expectations."""
    lhs_facs, terms = _terms(condition, ops)
    lhs = abs(expect(lhs_facs))
    values = []
    for group in terms:
        prod = 1.0
        for facs in group:
            prod *= max(expect(facs).real, 0.0)
        values.append(np.sqrt(prod))
    return float(lhs - max(values))


def pure_expect(psi: np.ndarray):
    return lambda facs: complex(np.vdot(psi, full_operator(facs) @ psi))


def density_expect(rho: np.ndarray):
    return lambda facs: complex(np.sum(full_operator(facs) * rho.T))


def noisy_margins(psi: np.ndarray, condition: str, ops, s_values) -> np.ndarray:
    """Margins on s|psi><psi| + (1-s) I/D for each s, through the affine
    form: every expectation is taken once on psi and once on I/D."""
    d = psi.shape[0]
    cache = {}

    def parts(facs):
        key = id(facs)
        if key not in cache:
            full = full_operator(facs)
            cache[key] = (complex(np.vdot(psi, full @ psi)), complex(np.trace(full)) / d)
        return cache[key]

    lhs_facs, terms = _terms(condition, ops)
    s = np.asarray(s_values, dtype=float)

    def at(facs):
        on_psi, on_noise = parts(facs)
        return s * on_psi + (1.0 - s) * on_noise

    lhs = np.abs(at(lhs_facs))
    rhs = np.zeros_like(s)
    for group in terms:
        prod = np.ones_like(s)
        for facs in group:
            prod *= np.maximum(at(facs).real, 0.0)
        rhs = np.maximum(rhs, np.sqrt(prod))
    return lhs - rhs


def lowering_ops(dims):
    """The canonical lowering choice |0><1| on every subsystem."""
    out = []
    for d in dims:
        m = np.zeros((d, d), dtype=complex)
        m[0, 1] = 1.0
        out.append(m)
    return out


def flip_pair(n: int, phase: float) -> np.ndarray:
    """(|0 1..1> + e^{i phase} |1 0..0>)/sqrt 2 on n qubits."""
    psi = np.zeros(2**n, dtype=complex)
    psi[2 ** (n - 1) - 1] = 1.0
    psi[2 ** (n - 1)] = np.exp(1j * phase)
    return psi / np.sqrt(2.0)


def downconv_amplitudes(n_pump: int, coupling: float, omegas, t: float) -> np.ndarray:
    """Sector amplitudes c_n(t) from |N,0,0>, by diagonalising the sector
    Hamiltonian built here from its formula."""
    w1, w2, w3 = omegas
    ns = np.arange(n_pump + 1, dtype=float)
    h = np.diag(w1 * (n_pump - ns) + (w2 + w3) * ns).astype(complex)
    off = coupling * np.sqrt(n_pump - ns[:-1]) * (ns[:-1] + 1.0)
    h += np.diag(off, 1) + np.diag(off, -1)
    w, u = np.linalg.eigh(h)
    return u @ (np.exp(-1j * w * t) * u[0].conj())


def even_pair_lhs(c: np.ndarray) -> float:
    return float(abs(sum(np.conj(c[n]) * c[n + 1] for n in range(0, len(c) - 2, 2))))

"""Brute-force oracles, independent of the library's evaluation paths.

Everything here expands expectation values by explicit summation over basis
index tuples, so it shares no code with the factor-wise contraction and the
Kronecker-product trace it is used to check.
"""

import itertools
from functools import reduce

import numpy as np


def _flat(dims, occ):
    idx = 0
    for d, o in zip(dims, occ):
        idx = idx * d + o
    return idx


def product_expectation_bruteforce(amplitudes, dims, factors) -> complex:
    """<psi| F1 x F2 x ... |psi> by explicit double loop over basis tuples."""
    total = 0.0 + 0.0j
    for bra in np.ndindex(*dims):
        coeff_bra = np.conj(amplitudes[_flat(dims, bra)])
        if coeff_bra == 0:
            continue
        for ket in np.ndindex(*dims):
            term = coeff_bra * amplitudes[_flat(dims, ket)]
            if term == 0:
                continue
            for k, op in enumerate(factors):
                term *= op[bra[k], ket[k]]
            total += term
    return complex(total)


def product_expectation_density_bruteforce(rho, dims, factors) -> complex:
    """Tr(F1 x F2 x ... rho) by explicit double loop over basis tuples."""
    total = 0.0 + 0.0j
    for bra in np.ndindex(*dims):
        i = _flat(dims, bra)
        for ket in np.ndindex(*dims):
            term = rho[_flat(dims, ket), i]
            if term == 0:
                continue
            for k, op in enumerate(factors):
                term *= op[bra[k], ket[k]]
            total += term
    return complex(total)


def tri_dagger_bruteforce(psi, op_a, op_b, op_c):
    """lhs and the three rhs terms of the tripartite dagger condition."""
    dims = psi.dims
    amps = psi.amplitudes
    ad, bd, cd = op_a.conj().T, op_b.conj().T, op_c.conj().T
    lhs = abs(product_expectation_bruteforce(amps, dims, [ad, op_b, op_c]))
    rhs_ops = [
        [ad @ op_a, op_b @ bd, cd @ op_c],
        [ad @ op_a, bd @ op_b, op_c @ cd],
        [ad @ op_a, bd @ op_b, cd @ op_c],
    ]
    terms = [
        np.sqrt(max(product_expectation_bruteforce(amps, dims, ops).real, 0.0))
        for ops in rhs_ops
    ]
    return lhs, terms


def block_expectation_bruteforce(data, dims, left, right, op_left, op_right) -> complex:
    """<X_L (x) Y_M> for X on the subsystems ``left`` and Y on ``right``.

    ``data`` is an amplitude vector or a density matrix.  Each operator's
    row and column indices are the block's occupations flattened in the
    order the block lists its subsystems; the expectation is summed over
    every pair of full basis tuples.
    """
    rho = np.outer(data, np.conj(data)) if np.ndim(data) == 1 else data
    bl = [dims[i] for i in left]
    br = [dims[i] for i in right]
    total = 0.0 + 0.0j
    for bra in np.ndindex(*dims):
        for ket in np.ndindex(*dims):
            weight = rho[_flat(dims, ket), _flat(dims, bra)]
            if weight == 0:
                continue
            x = op_left[_flat(bl, [bra[i] for i in left]), _flat(bl, [ket[i] for i in left])]
            y = op_right[_flat(br, [bra[i] for i in right]), _flat(br, [ket[i] for i in right])]
            total += weight * x * y
    return complex(total)


def bipartite_bruteforce(data, dims, left, right, op_l, op_m):
    """(lhs, rhs) of bi1 and of bi2 for L on ``left`` and M on ``right``."""

    def expect(x, y):
        return block_expectation_bruteforce(data, dims, left, right, x, y)

    ld, md = op_l.conj().T, op_m.conj().T
    il, im = np.eye(op_l.shape[0]), np.eye(op_m.shape[0])
    bi1 = (abs(expect(ld, op_m)), np.sqrt(max(expect(ld @ op_l, md @ op_m).real, 0.0)))
    e_l = max(expect(ld @ op_l, im).real, 0.0)
    e_m = max(expect(il, md @ op_m).real, 0.0)
    bi2 = (abs(expect(op_l, op_m)), np.sqrt(e_l * e_m))
    return bi1, bi2


# --- n-party conditions from the bipartition rule -------------------------------
#
# Written from the witness module docstring, with explicit np.kron composites:
# one rhs term per bipartition, keyed by the bipartition as a frozenset of its
# two blocks.  Dagger form: A (party 0) enters as A†A, an operator in A's
# block as XX†, one in the opposite block as X†X.  Product form:
# ⟨∏ X†X over one block⟩·⟨∏ X†X over the other⟩.


def _full_expect(data, factors) -> complex:
    full = reduce(np.kron, factors)
    if np.ndim(data) == 1:
        return complex(np.vdot(data, full @ data))
    return complex(np.trace(full @ data))


def _blocks_with_a(n):
    """A's block of every bipartition of n parties: party 0 plus others."""
    for size in range(n - 1):
        for others in itertools.combinations(range(1, n), size):
            yield {0, *others}


def _bipartition(block, n):
    return frozenset({frozenset(block), frozenset(set(range(n)) - set(block))})


def dagger_oracle(data, ops):
    """(lhs, {bipartition: term}) of the n-party dagger form."""
    n = len(ops)
    dag = [m.conj().T for m in ops]
    lhs = abs(_full_expect(data, [dag[0], *ops[1:]]))
    terms = {}
    for own in _blocks_with_a(n):
        factors = [dag[0] @ ops[0]] + [
            ops[k] @ dag[k] if k in own else dag[k] @ ops[k] for k in range(1, n)
        ]
        terms[_bipartition(own, n)] = np.sqrt(max(_full_expect(data, factors).real, 0.0))
    return lhs, terms


def product_oracle(data, ops):
    """(lhs, {bipartition: term}) of the n-party product form."""
    n = len(ops)
    eye = [np.eye(m.shape[0]) for m in ops]
    sq = [m.conj().T @ m for m in ops]
    lhs = abs(_full_expect(data, ops))
    terms = {}
    for block in _blocks_with_a(n):
        inside = _full_expect(data, [sq[k] if k in block else eye[k] for k in range(n)])
        outside = _full_expect(data, [eye[k] if k in block else sq[k] for k in range(n)])
        terms[_bipartition(block, n)] = np.sqrt(max(inside.real, 0.0) * max(outside.real, 0.0))
    return lhs, terms


def label_bipartition(label):
    """The bipartition a report label such as 'ab|cd' names."""
    return frozenset(frozenset("abcdefgh".index(c) for c in side) for side in label.split("|"))


# --- exact evolution, the reference for the down-conversion dynamics ----------


def hermitian_evolve(h, t: float, v) -> np.ndarray:
    """Apply exp(-i*t*h) to the vector v via eigendecomposition of h.

    The spaces handled here are at most a few hundred dimensions, so exact
    diagonalisation is preferred over series or splitting methods.  Norm is
    preserved to machine precision.

    Raises ValidationError if h is not hermitian within 1e-10 (entrywise).
    """
    from gmekit import ShapeError, ValidationError
    from gmekit.linalg import _as_square

    h = _as_square(h)
    if not np.max(np.abs(h - h.conj().T)) <= 1e-10:
        raise ValidationError("hermitian_evolve requires a hermitian matrix")
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.shape[0] != h.shape[0]:
        raise ShapeError(f"vector shape {v.shape} does not match matrix {h.shape}")
    w, u = np.linalg.eigh(h)
    return u @ (np.exp(-1j * t * w) * (u.conj().T @ v))


# --- mixtures rebuilt as explicit outer-product sums ----------------------------


def mixture_matrix(weights, components, noise=0.0):
    """sum_j w_j |psi_j><psi_j| + noise * I/D, one np.outer per component."""
    d = len(components[0])
    rho = noise / d * np.eye(d, dtype=complex)
    for w, psi in zip(weights, components):
        rho = rho + w * np.outer(psi, np.conj(psi))
    return rho


def random_biseparable_draws(dims, partitions, mixture_size, seed):
    """(weights, components) that ``states.random_biseparable`` draws for an
    integer seed or a Generator, which it advances as the library does: the
    weights first, then for each component a Haar vector on its block and
    one on the rest, each real parts before imaginary.  Component amplitudes
    are filled in one basis tuple at a time."""
    rng = np.random.default_rng(seed)
    weights = -np.log(rng.uniform(size=mixture_size))
    weights = weights / weights.sum()

    def haar(d):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return z / np.linalg.norm(z)

    components = []
    for j in range(mixture_size):
        block = sorted(partitions[j % len(partitions)])
        rest = [i for i in range(len(dims)) if i not in block]
        u = haar(int(np.prod([dims[i] for i in block])))
        v = haar(int(np.prod([dims[i] for i in rest])))
        psi = np.zeros(int(np.prod(dims)), dtype=complex)
        for occ in np.ndindex(*dims):
            psi[_flat(dims, occ)] = (
                u[_flat([dims[i] for i in block], [occ[i] for i in block])]
                * v[_flat([dims[i] for i in rest], [occ[i] for i in rest])]
            )
        components.append(psi)
    return weights, components


# --- a biseparable family the max form calls violated ---------------------------


def product_counterexample(n, x, y):
    """Equal mixture over the bipartitions S|R of n qubits, S the block that
    holds party a, of the product states
    (sqrt(1-x)|0 1..1>_S + sqrt(x)|1 0..0>_S) (x) (sqrt(1-y)|1..1>_R + sqrt(y)|0..0>_R),
    built with ``DensityMatrix._mixture``.  Returns the state, its
    components and their (S, R) blocks; amplitudes are filled one basis
    tuple at a time."""
    from gmekit import DensityMatrix

    blocks, components = [], []
    for own in _blocks_with_a(n):
        s_block, r_block = sorted(own), [k for k in range(n) if k not in own]
        others = len(s_block) - 1
        amp_s = {(0, *[1] * others): np.sqrt(1 - x), (1, *[0] * others): np.sqrt(x)}
        amp_r = {(1,) * len(r_block): np.sqrt(1 - y), (0,) * len(r_block): np.sqrt(y)}
        psi = np.zeros(2**n, dtype=complex)
        for occ in itertools.product((0, 1), repeat=n):
            s_occ, r_occ = tuple(occ[k] for k in s_block), tuple(occ[k] for k in r_block)
            psi[_flat([2] * n, occ)] = amp_s.get(s_occ, 0.0) * amp_r.get(r_occ, 0.0)
        blocks.append((s_block, r_block))
        components.append(psi)
    weights = [1.0 / len(components)] * len(components)
    return DensityMatrix._mixture((2,) * n, weights, components), components, blocks

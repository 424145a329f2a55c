"""Brute-force oracles, independent of the library's evaluation paths.

Everything here expands expectation values by explicit summation over basis
index tuples, so it shares no code with the factor-wise contraction and the
Kronecker-product trace it is used to check.
"""

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

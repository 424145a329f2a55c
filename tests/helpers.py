"""Shared random-object builders for the test suite."""

import numpy as np

from gmekit import DensityMatrix, PureState, basis_index, haar_random_state


def basis_vector(dims, occupation) -> np.ndarray:
    """Unit vector |occupation> in the composite space: a row of the identity."""
    return np.eye(int(np.prod(dims)), dtype=complex)[basis_index(dims, occupation)]


def random_pure_state(rng, dims) -> PureState:
    return PureState(tuple(dims), haar_random_state(int(np.prod(dims)), rng))


def random_density_matrix(rng, dims) -> DensityMatrix:
    d = int(np.prod(dims))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return DensityMatrix(tuple(dims), rho / np.trace(rho))


def random_rank_one(rng, dim) -> np.ndarray:
    return np.outer(haar_random_state(dim, rng), haar_random_state(dim, rng).conj())


def random_hermitian(rng, dim) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_matrix(rng, rows, cols) -> np.ndarray:
    return rng.uniform(-1, 1, (rows, cols)) + 1j * rng.uniform(-1, 1, (rows, cols))

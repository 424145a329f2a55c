import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmekit import (
    DensityMatrix,
    ValidationError,
    basis_index,
    basis_vector,
    hermitian_evolve,
    kron_all,
    qutrit_lower,
    sigma_minus,
)
from gmekit.witness import _expectation
from helpers import random_hermitian, random_matrix

SM = sigma_minus()
SP = SM.conj().T


def test_kron_identity_cases():
    np.testing.assert_array_equal(kron_all([np.eye(2), np.eye(2)]), np.eye(4))
    m = random_matrix(np.random.default_rng(0), 3, 2)
    np.testing.assert_array_equal(kron_all([np.array([[1.0]]), m]), m)


def test_kron_sigma_minus_pair():
    out = kron_all([SM, SM])
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = 1.0  # |00><11|
    np.testing.assert_array_equal(out, expected)


def test_kron_all_equals_np_kron_chain():
    rng = np.random.default_rng(4)
    factors = [random_matrix(rng, r, c) for r, c in [(2, 3), (1, 4), (3, 3), (4, 2)]]
    expected = factors[0]
    assert np.array_equal(kron_all(factors[:1]), expected)
    for k in range(2, len(factors) + 1):
        expected = np.kron(expected, factors[k - 1])
        assert np.array_equal(kron_all(factors[:k]), expected)
    bad = np.eye(2, dtype=complex)
    bad[0, 1] = np.nan
    for chain in ([bad, np.eye(2)], [np.eye(2), bad], [np.eye(2), np.full((2, 2), np.inf)]):
        with pytest.raises(ValidationError):
            kron_all(chain)


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_kron_associative(seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 4, size=6)
    a = random_matrix(rng, sizes[0], sizes[1])
    b = random_matrix(rng, sizes[2], sizes[3])
    c = random_matrix(rng, sizes[4], sizes[5])
    left = kron_all([kron_all([a, b]), c])
    right = kron_all([a, kron_all([b, c])])
    assert np.max(np.abs(left - right)) <= 1e-14


def test_matmul_ladder_algebra():
    np.testing.assert_array_equal(SM @ SP, np.diag([1.0, 0.0]).astype(complex))
    np.testing.assert_array_equal(SP @ SM, np.diag([0.0, 1.0]).astype(complex))
    lower = qutrit_lower()
    np.testing.assert_array_equal(
        lower.conj().T @ lower, np.diag([0.0, 1.0, 1.0]).astype(complex)
    )


def test_expectation_cases():
    # The factor-wise kernel on a density matrix: Tr((F1 x F2 x ...) rho).
    d = 4
    _, expect = _expectation(DensityMatrix((2, 2), np.eye(d) / d))
    assert expect([np.eye(2), np.eye(2)]) == pytest.approx(1.0)
    proj = np.diag([0.0, 1.0]).astype(complex)
    _, expect = _expectation(DensityMatrix((2, 2, 2), kron_all([proj] * 3)))
    assert expect([proj] * 3) == pytest.approx(1.0)
    assert expect([np.eye(2), np.eye(2), np.eye(2) - proj]) == pytest.approx(0.0)


def test_expectation_white_noise_orthogonal_projector():
    from gmekit import superposition, white_noise_mix

    psi = superposition((2, 2, 2), [(1, (0, 1, 1)), (1, (1, 0, 0))])
    s = 0.37
    rho = white_noise_mix(psi, s)
    p0, p1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    _, expect = _expectation(rho)  # |010><010|, orthogonal to psi
    assert expect([p0, p1, p0]).real == pytest.approx((1 - s) / 8, abs=1e-14)


def test_evolve_time_zero_and_diagonal_phase():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 5)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    np.testing.assert_allclose(hermitian_evolve(h, 0.0, v), v, atol=1e-12)
    freqs = np.array([0.3, -1.2, 2.5])
    out = hermitian_evolve(np.diag(freqs), 0.8, basis_vector((3,), (1,)))
    expected = np.exp(-1j * freqs[1] * 0.8) * basis_vector((3,), (1,))
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_evolve_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        hermitian_evolve(SM, 1.0, np.array([1.0, 0.0]))


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_evolve_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    h = random_hermitian(rng, n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    t = float(rng.uniform(-10, 10))
    out = hermitian_evolve(h, t, v)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-10


def test_basis_index_row_major():
    assert basis_index((2, 2, 2), (1, 1, 0)) == 6
    assert basis_index((2, 3), (1, 2)) == 5
    vec = basis_vector((2, 2, 2), (1, 0, 1))
    assert vec[5] == 1.0 and np.count_nonzero(vec) == 1
    with pytest.raises(IndexError):
        basis_index((2, 2), (0, 2))
    with pytest.raises(IndexError):
        basis_index((2, 2), (0, -1))

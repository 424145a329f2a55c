import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmekit import (
    ShapeError,
    ValidationError,
    adjoint,
    basis_index,
    basis_vector,
    expectation,
    hermitian_evolve,
    kron,
    kron_all,
    matmul,
    sigma_minus,
    trace,
)
from helpers import random_hermitian, random_matrix

SM = sigma_minus()
SP = SM.conj().T


def test_kron_identity_cases():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    m = random_matrix(np.random.default_rng(0), 3, 2)
    np.testing.assert_array_equal(kron(np.array([[1.0]]), m), m)


def test_kron_sigma_minus_pair():
    out = kron(SM, SM)
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
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert np.max(np.abs(left - right)) <= 1e-14


def test_adjoint_definitions():
    np.testing.assert_array_equal(adjoint(SM), SP)
    np.testing.assert_array_equal(adjoint(np.eye(3)), np.eye(3))
    lower = np.zeros((3, 3), dtype=complex)
    lower[0, 1] = lower[1, 2] = 1.0
    raised = np.zeros((3, 3), dtype=complex)
    raised[1, 0] = raised[2, 1] = 1.0
    np.testing.assert_array_equal(adjoint(lower), raised)


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_adjoint_involution_and_trace_cyclicity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    a = random_matrix(rng, n, n)
    b = random_matrix(rng, n, n)
    np.testing.assert_array_equal(adjoint(adjoint(a)), a)
    assert abs(trace(matmul(a, b)) - trace(matmul(b, a))) <= 1e-12


def test_matmul_ladder_algebra():
    np.testing.assert_array_equal(matmul(SM, SP), np.diag([1.0, 0.0]).astype(complex))
    np.testing.assert_array_equal(matmul(SP, SM), np.diag([0.0, 1.0]).astype(complex))
    lower = np.zeros((3, 3), dtype=complex)
    lower[0, 1] = lower[1, 2] = 1.0
    np.testing.assert_array_equal(
        matmul(adjoint(lower), lower), np.diag([0.0, 1.0, 1.0]).astype(complex)
    )


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(np.eye(2), np.eye(3))


def test_trace_cases():
    assert trace(np.eye(4)) == 4
    assert trace(SM) == 0
    proj = np.zeros((8, 8), dtype=complex)
    proj[5, 5] = 1.0  # |101><101|
    assert trace(proj) == 1
    with pytest.raises(ShapeError):
        trace(np.ones((2, 3)))


def test_expectation_cases():
    d = 4
    assert expectation(np.eye(d) / d, np.eye(d)) == pytest.approx(1.0)
    proj = np.zeros((8, 8), dtype=complex)
    proj[7, 7] = 1.0
    assert expectation(proj, proj) == pytest.approx(1.0)
    with pytest.raises(ShapeError):
        expectation(np.eye(2), np.eye(4))


def test_expectation_white_noise_orthogonal_projector():
    from gmekit import superposition, white_noise_mix

    psi = superposition((2, 2, 2), [(1, (0, 1, 1)), (1, (1, 0, 0))])
    s = 0.37
    rho = white_noise_mix(psi, s)
    proj = np.zeros((8, 8), dtype=complex)
    proj[2, 2] = 1.0  # |010>, orthogonal to psi
    assert expectation(rho.matrix, proj).real == pytest.approx((1 - s) / 8, abs=1e-14)


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

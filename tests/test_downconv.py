import numpy as np
import pytest

from gmekit import (
    DownConversionParams,
    SubspaceAmplitudes,
    ValidationError,
    block_witness,
    boson_annihilation,
    downconv_witness,
    even_pair_sum,
    evolve,
    subspace_hamiltonian,
    sweep_rows,
    time_series,
    to_pure_state,
)
from oracles import hermitian_evolve


def full_space_hamiltonian(params):
    """Three-mode Hamiltonian at uniform cutoff N, built independently."""
    n_pump = params.pump_photons
    dim = n_pump + 1
    a = np.kron(np.kron(boson_annihilation(n_pump), np.eye(dim)), np.eye(dim))
    b = np.kron(np.kron(np.eye(dim), boson_annihilation(n_pump)), np.eye(dim))
    c = np.kron(np.kron(np.eye(dim), np.eye(dim)), boson_annihilation(n_pump))
    h = (
        params.omega1 * a.conj().T @ a
        + params.omega2 * b.conj().T @ b
        + params.omega3 * c.conj().T @ c
    )
    h += params.coupling * (a.conj().T @ b @ c + a @ b.conj().T @ c.conj().T)
    return h, (a, b, c)


def sector_indices(n_pump):
    dim = n_pump + 1
    return [((n_pump - n) * dim + n) * dim + n for n in range(dim)]


def test_params_validation():
    with pytest.raises(ValidationError):
        DownConversionParams(pump_photons=3)
    with pytest.raises(ValidationError):
        DownConversionParams(pump_photons=0)


def test_subspace_hamiltonian_structure():
    h = subspace_hamiltonian(DownConversionParams(pump_photons=2, coupling=1.0))
    np.testing.assert_allclose(np.diag(h, 1).real, [np.sqrt(2), 2.0], atol=1e-14)
    np.testing.assert_array_equal(h, h.conj().T)
    h2 = subspace_hamiltonian(
        DownConversionParams(pump_photons=4, omega1=1.5, omega2=0.5, omega3=0.25, coupling=0.0)
    )
    assert np.count_nonzero(h2 - np.diag(np.diag(h2))) == 0
    np.testing.assert_allclose(
        np.diag(h2).real, [1.5 * (4 - n) + 0.75 * n for n in range(5)], atol=1e-14
    )


def test_evolve_initial_and_perturbative():
    params = DownConversionParams(pump_photons=2)
    amps0 = evolve(params, 0.0)
    np.testing.assert_allclose(amps0.amplitudes, [1, 0, 0], atol=1e-14)
    t = 1e-3
    amps = evolve(params, t)
    assert abs(amps.amplitudes[1] - (-1j * np.sqrt(2) * t)) < 1e-8


def test_norm_conserved_large_pump():
    params = DownConversionParams(pump_photons=20, coupling=1.0)
    for amps in time_series(params, np.linspace(0.0, 10.0, 21)):
        assert abs(np.linalg.norm(amps.amplitudes) - 1.0) < 1e-10


def test_time_series_matches_single_point_evolve():
    params = DownConversionParams(pump_photons=4, omega1=0.3, omega2=0.1, coupling=0.7)
    times = [0.0, 0.21, 1.7]
    for amps, t in zip(time_series(params, times), times):
        np.testing.assert_allclose(
            amps.amplitudes, evolve(params, t).amplitudes, atol=1e-12
        )


@pytest.mark.parametrize("n_pump", [2, 4])
def test_subspace_matches_full_space_evolution(n_pump):
    params = DownConversionParams(pump_photons=n_pump, coupling=1.0)
    h_full, _ = full_space_hamiltonian(params)
    idx = sector_indices(n_pump)
    v0 = np.zeros((n_pump + 1) ** 3, dtype=complex)
    v0[idx[0]] = 1.0
    for t in [0.1, 0.5, 1.0]:
        full = hermitian_evolve(h_full, t, v0)
        sub = evolve(params, t).amplitudes
        np.testing.assert_allclose(full[idx], sub, atol=1e-8)
        off_sector = np.delete(full, idx)
        assert np.max(np.abs(off_sector)) < 1e-12


def test_conserved_charge_in_full_space():
    params = DownConversionParams(pump_photons=2, omega1=0.2, omega3=0.4, coupling=0.9)
    h_full, (a, b, c) = full_space_hamiltonian(params)
    charge = 2 * a.conj().T @ a + b.conj().T @ b + c.conj().T @ c
    idx = sector_indices(2)
    v0 = np.zeros(27, dtype=complex)
    v0[idx[0]] = 1.0
    for t in [0.0, 0.3, 2.0]:
        v = hermitian_evolve(h_full, t, v0)
        value = np.vdot(v, charge @ v).real
        assert abs(value - 4.0) < 1e-10


def test_witness_initial_state_silent():
    params = DownConversionParams(pump_photons=4)
    report = downconv_witness(evolve(params, 0.0))
    assert report.lhs == pytest.approx(0.0, abs=1e-15)
    assert not report.violated


def test_witness_matches_pair_sum_and_rhs_vanishes():
    rng = np.random.default_rng(9)
    for n_pump in (2, 4, 6):
        c = rng.standard_normal(n_pump + 1) + 1j * rng.standard_normal(n_pump + 1)
        c /= np.linalg.norm(c)
        amps = SubspaceAmplitudes(n_pump, 0.0, c)
        report = downconv_witness(amps)
        assert report.lhs == pytest.approx(abs(even_pair_sum(amps)), abs=1e-12)
        for _, term in report.rhs_terms:
            assert term <= 1e-12
        assert report.violated == (report.lhs > report.tolerance)


def test_witness_large_fock_space():
    params = DownConversionParams(16)
    for amps in time_series(params, [0.02, 0.05, 0.11]):
        assert to_pure_state(amps).dim == 17**3
        report = downconv_witness(amps)
        assert report.lhs == pytest.approx(abs(even_pair_sum(amps)), abs=1e-12)
        for _, term in report.rhs_terms:
            assert term <= 1e-12


def test_block_witness_single_pair():
    rng = np.random.default_rng(10)
    n_pump = 4
    c = rng.standard_normal(n_pump + 1) + 1j * rng.standard_normal(n_pump + 1)
    c /= np.linalg.norm(c)
    amps = SubspaceAmplitudes(n_pump, 0.0, c)
    for n in (0, 2):
        report = block_witness(amps, n)
        assert report.lhs == pytest.approx(abs(np.conj(c[n]) * c[n + 1]), abs=1e-12)
        assert report.rhs_max <= 1e-12
    with pytest.raises(ValidationError):
        block_witness(amps, 1)
    with pytest.raises(ValidationError):
        block_witness(amps, 4)


def test_phase_cancellation_caught_by_block_witness():
    # Equal and opposite pair correlations: the summed witness is blind,
    # the per-block one is not.
    c = np.array([0.5, 0.5, 0.5, -0.5, 0.0], dtype=complex)
    amps = SubspaceAmplitudes(4, 0.0, c)
    assert abs(even_pair_sum(amps)) < 1e-15
    assert not downconv_witness(amps).violated
    assert block_witness(amps, 0).violated
    assert block_witness(amps, 2).violated


def test_witness_ignores_last_amplitude():
    # |0,N,N> has no partner pair, so c_N never contributes.
    c = np.zeros(5, dtype=complex)
    c[4] = 1.0
    amps = SubspaceAmplitudes(4, 0.0, c)
    assert even_pair_sum(amps) == 0
    assert not downconv_witness(amps).violated


def test_to_pure_state_layout():
    c = np.array([0.6, 0.8j, 0.0], dtype=complex)
    state = to_pure_state(SubspaceAmplitudes(2, 0.0, c))
    assert state.dims == (3, 3, 3)
    assert state.amplitudes[sector_indices(2)[0]] == pytest.approx(0.6)
    assert state.amplitudes[sector_indices(2)[1]] == pytest.approx(0.8j)
    assert np.count_nonzero(state.amplitudes) == 2


def test_sweep_rows_format():
    params = DownConversionParams(pump_photons=4, coupling=1.0)
    times = np.arange(0.0, 1.0001, 0.25)
    header, rows = sweep_rows(params, times)
    assert header[0] == "t" and header[-2:] == ["witness_lhs", "violated"]
    assert len(header) == 1 + 5 + 2
    for row, t in zip(rows, times):
        assert row[0] == pytest.approx(t)
        assert sum(row[1:6]) == pytest.approx(1.0, abs=1e-10)
    assert rows[0][-1] is False and rows[0][-2] == pytest.approx(0.0, abs=1e-15)
    assert all(row[-1] for row in rows[1:])  # entangled as soon as pairs form


def test_sweep_rows_free_evolution_silent():
    params = DownConversionParams(pump_photons=2, omega1=1.0, coupling=0.0)
    _, rows = sweep_rows(params, np.linspace(0, 2, 9))
    for row in rows:
        assert row[-2] == pytest.approx(0.0, abs=1e-14)
        assert row[-1] is False

"""Acceptance suite: one test per criterion, with its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion (pytest's own PASSED/FAILED lines plus a [PASS] summary print).
"""

import json
import time

import numpy as np
import pytest

from gmekit import (
    DownConversionParams,
    PureState,
    all_bipartitions,
    boson_annihilation,
    evolve,
    ketbra,
    quadripartite_dagger,
    qutrit_lower,
    qutrit_raise,
    random_biseparable,
    sigma_minus,
    superposition,
    time_series,
    to_pure_state,
    tripartite_dagger,
    tripartite_product,
)
from gmekit.cli import main
from helpers import (
    random_density_matrix,
    random_hermitian,
    random_pure_state,
    random_rank_one,
)
from oracles import hermitian_evolve, tri_dagger_bruteforce

SM = sigma_minus()
TOLERANCE = 1e-10
INV_SQRT2 = 1 / np.sqrt(2)


def test_c01_ghz_family_product_condition():
    start = time.perf_counter()
    thetas = np.linspace(1e-3, np.pi / 2 - 1e-3, 201)
    for theta in thetas:
        psi = superposition(
            (2, 2, 2), [(np.cos(theta), (0, 0, 0)), (np.sin(theta), (1, 1, 1))]
        )
        report = tripartite_product(psi, SM, SM, SM)
        assert report.violated == (theta < np.pi / 4), f"wrong verdict at theta={theta}"
    boundary = superposition((2, 2, 2), [(INV_SQRT2, (0, 0, 0)), (INV_SQRT2, (1, 1, 1))])
    margin = tripartite_product(boundary, SM, SM, SM).margin
    assert abs(margin) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[PASS] C01 GHZ family: verdict flips at pi/4, boundary margin {margin:.2e}, "
          f"{elapsed:.2f}s")


def test_c02_flip_pair_dagger_detection():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c /= np.linalg.norm(c)
        psi = superposition((2, 2, 2), [(c[0], (0, 1, 1)), (c[1], (1, 0, 0))])
        report = tripartite_dagger(psi, SM, SM, SM)
        assert report.rhs_max == 0.0
        assert abs(report.lhs - abs(c[0] * c[1])) <= 1e-14
        assert report.violated
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[PASS] C02 flip-pair detection: 100 random coefficient pairs, rhs exactly 0, "
          f"{elapsed:.2f}s")


def _scan_threshold(tmp_path, capsys, doc, condition, n_ops):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    code = main(
        ["scan-noise", "--state", str(path), "--ops"]
        + ["sigma_minus"] * n_ops
        + ["--condition", condition]
    )
    out = json.loads(capsys.readouterr().out)
    return code, out["threshold"]


def test_c03_tripartite_noise_threshold(tmp_path, capsys):
    doc = {
        "dims": [2, 2, 2],
        "kind": "pure",
        "terms": [
            {"occupation": [0, 1, 1], "re": INV_SQRT2},
            {"occupation": [1, 0, 0], "re": INV_SQRT2},
        ],
    }
    code, threshold = _scan_threshold(tmp_path, capsys, doc, "tri-dagger", 3)
    assert code == 10
    assert abs(threshold - 0.5) <= 1e-9
    print(f"[PASS] C03 tripartite noise threshold: s* = {threshold!r} (target 0.5)")


def test_c04_quadripartite_noise_threshold(tmp_path, capsys):
    doc = {
        "dims": [2, 2, 2, 2],
        "kind": "pure",
        "terms": [
            {"occupation": [0, 1, 1, 1], "re": INV_SQRT2},
            {"occupation": [1, 0, 0, 0], "re": INV_SQRT2},
        ],
    }
    code, threshold = _scan_threshold(tmp_path, capsys, doc, "quad-dagger", 4)
    closed_form = float((np.sqrt(17) - 1) / 8)
    assert code == 10
    assert abs(threshold - closed_form) <= 1e-9
    print(f"[PASS] C04 quadripartite noise threshold: s* = {threshold!r} "
          f"(target {closed_form!r})")


def test_c05_qutrit_chain_condition():
    ops = (qutrit_lower(), qutrit_raise(), qutrit_lower())
    c0 = c2 = 0.6
    c1 = np.sqrt(1 - c0**2 - c2**2)
    psi = superposition((3, 3, 3), [(c0, (0, 0, 2)), (c1, (1, 1, 1)), (c2, (2, 2, 0))])
    report = tripartite_dagger(psi, *ops)
    assert abs(report.margin - 0.2 * c1) <= 1e-12
    assert report.violated
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = rng.uniform(0.05, 0.45, size=2)  # a + b < 1 always here
        mid = np.sqrt(1 - a**2 - b**2)
        psi = superposition((3, 3, 3), [(a, (0, 0, 2)), (mid, (1, 1, 1)), (b, (2, 2, 0))])
        assert not tripartite_dagger(psi, *ops).violated
    print(f"[PASS] C05 qutrit chain: margin = 0.2*|c1| = {report.margin!r}, "
          f"sub-threshold states stay silent")


def test_c06_five_term_qubit_state():
    op_a, op_b, op_c = ketbra(2, 0, 1), ketbra(2, 1, 0), ketbra(2, 0, 1)
    occupations = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 1, 0)]
    rng = np.random.default_rng(6)
    for _ in range(50):
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        c /= np.linalg.norm(c)
        psi = superposition((2, 2, 2), list(zip(c, occupations)))
        report = tripartite_dagger(psi, op_a, op_b, op_c)
        assert report.rhs_max == 0.0
        assert abs(report.lhs - abs(c[1] * c[4])) <= 1e-14
        assert report.violated == (abs(c[1] * c[4]) > TOLERANCE)
    print("[PASS] C06 five-term state: lhs = |c2*c5|, rhs exactly 0, verdict follows c2*c5")


def test_c07_overlapping_component_state():
    rng = np.random.default_rng(7)
    e0 = np.array([1.0, 0.0], dtype=complex)
    for _ in range(50):
        s_u = rng.uniform(0.1, 0.95)
        u = np.array([np.sqrt(1 - s_u**2), s_u], dtype=complex)  # <1|u> = s_u > 0
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vec = c[0] * np.kron(np.kron(e0, u), u) + c[1] * np.kron(np.kron(u, e0), e0)
        norm = np.linalg.norm(vec)
        c_scaled = c / norm
        psi = PureState((2, 2, 2), vec / norm)
        report = tripartite_dagger(psi, SM, SM, SM)
        assert report.rhs_max == 0.0
        expected = abs(np.conj(c_scaled[1]) * c_scaled[0]) * s_u**3
        assert abs(report.lhs - expected) <= 1e-12
        assert report.violated
    print("[PASS] C07 overlapping components: lhs = |c1* c0| * s^3, rhs exactly 0")


def test_c08_biseparable_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    tri_parts = all_bipartitions(3)
    worst = -np.inf
    for _ in range(1000):
        rho = random_biseparable((2, 2, 2), tri_parts, 3, rng)
        ops = [random_rank_one(rng, 2) for _ in range(3)]
        worst = max(worst, tripartite_dagger(rho, *ops).margin,
                    tripartite_product(rho, *ops).margin)
    quad_parts = all_bipartitions(4)
    for _ in range(1000):
        rho = random_biseparable((2, 2, 2, 2), quad_parts, 7, rng)
        ops = [random_rank_one(rng, 2) for _ in range(4)]
        worst = max(worst, quadripartite_dagger(rho, *ops).margin)
    elapsed = time.perf_counter() - start
    assert worst <= TOLERANCE
    assert elapsed < 60.0
    print(f"[PASS] C08 biseparable soundness: 1000+1000 trials, worst margin {worst:.3e}, "
          f"{elapsed:.1f}s")


def test_c09_hermitian_nullity():
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(300):
        rho = random_density_matrix(rng, (2, 2, 2))
        ops = [random_hermitian(rng, 2) for _ in range(3)]
        violations += tripartite_dagger(rho, *ops).violated
        violations += tripartite_product(rho, *ops).violated
    for _ in range(200):
        rho = random_density_matrix(rng, (2, 2, 2, 2))
        ops = [random_hermitian(rng, 2) for _ in range(4)]
        violations += quadripartite_dagger(rho, *ops).violated
    assert violations == 0
    print("[PASS] C09 hermitian nullity: 500 random states, zero violations")


def test_c10_down_conversion():
    params = DownConversionParams(pump_photons=4, coupling=1.0)
    dims = (5, 5, 5)
    charge_weights = np.array(
        [2 * na + nb + nc for na in range(5) for nb in range(5) for nc in range(5)]
    )
    for amps in time_series(params, np.linspace(0.0, 10.0, 41)):
        assert abs(np.linalg.norm(amps.amplitudes) - 1.0) <= 1e-10
        full = to_pure_state(amps).amplitudes
        charge = float(np.sum(np.abs(full) ** 2 * charge_weights))
        assert abs(charge - 8.0) <= 1e-10

    from gmekit import downconv_witness

    report = downconv_witness(evolve(params, 0.1))
    assert report.lhs > 0 and report.violated

    small = DownConversionParams(pump_photons=2, coupling=1.0)
    dim = 3
    a = np.kron(np.kron(boson_annihilation(2), np.eye(dim)), np.eye(dim))
    b = np.kron(np.kron(np.eye(dim), boson_annihilation(2)), np.eye(dim))
    c = np.kron(np.kron(np.eye(dim), np.eye(dim)), boson_annihilation(2))
    h_full = a.conj().T @ b @ c + a @ b.conj().T @ c.conj().T
    idx = [int(np.ravel_multi_index((2 - n, n, n), (3, 3, 3))) for n in range(3)]
    v0 = np.zeros(27, dtype=complex)
    v0[idx[0]] = 1.0
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 11):
        full_amps = hermitian_evolve(h_full, t, v0)[idx]
        sub_amps = evolve(small, t).amplitudes
        worst = max(worst, float(np.max(np.abs(full_amps - sub_amps))))
    assert worst <= 1e-8
    print(f"[PASS] C10 down-conversion: norm & charge conserved, witness fires at t=0.1 "
          f"(lhs {report.lhs:.4f}), N=2 full-space deviation {worst:.2e}")


def test_c11_dominance():
    rng = np.random.default_rng(111)
    checked = 0
    sum_violations = 0
    for k in range(1000):
        if k % 5 == 0:
            # Noisy flip-pair states fire the sum form, so the implication
            # "sum violation => max violation" is actually exercised.
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            c /= np.linalg.norm(c)
            psi = superposition((2, 2, 2), [(c[0], (0, 1, 1)), (c[1], (1, 0, 0))])
            from gmekit import white_noise_mix

            state = white_noise_mix(psi, rng.uniform(0.3, 1.0))
            ops = [SM, SM, SM]
            report = tripartite_dagger(state, *ops)
        elif k % 2 == 0:
            state = random_pure_state(rng, (2, 2, 2))
            ops = [random_rank_one(rng, 2) for _ in range(3)]
            report = (tripartite_dagger if k % 4 == 0 else tripartite_product)(state, *ops)
        else:
            state = random_pure_state(rng, (2, 2, 2, 2))
            ops = [random_rank_one(rng, 2) for _ in range(4)]
            report = quadripartite_dagger(state, *ops)
        assert report.rhs_max <= report.rhs_sum + 1e-15
        if report.sum_violated:
            sum_violations += 1
            assert report.violated
        checked += 1
    assert checked == 1000
    assert sum_violations > 0  # the implication must not pass vacuously
    print(f"[PASS] C11 dominance: 1000 inputs, rhs_max <= rhs_sum, "
          f"{sum_violations} sum-form violations all max-form too")


def test_c12_oracle_equivalence():
    rng = np.random.default_rng(1212)
    cases = [((2, 2, 2), 100), ((3, 3, 3), 50), ((2, 3, 2), 50)]
    worst = 0.0
    for dims, count in cases:
        for _ in range(count):
            psi = random_pure_state(rng, dims)
            ops = [
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for d in dims
            ]
            report = tripartite_dagger(psi, *ops, tolerance=1e-6)
            lhs_ref, terms_ref = tri_dagger_bruteforce(psi, *ops)
            worst = max(worst, abs(report.lhs - lhs_ref))
            for (_, got), ref in zip(report.rhs_terms, terms_ref):
                worst = max(worst, abs(got - ref))
    assert worst <= 1e-12
    print(f"[PASS] C12 oracle equivalence: 200 states, worst deviation {worst:.2e}")

import os
import subprocess
import sys

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmekit
from gmekit import (
    DensityMatrix,
    RankOneParams,
    ValidationError,
    all_bipartitions,
    evaluate_condition,
    optimize,
    random_biseparable,
    sigma_minus,
    superposition,
    white_noise_mix,
)
from gmekit.search import SEARCH_CONDITIONS, _closed_form, _dagger_terms, _product_terms
from gmekit.witness import _expectation
from helpers import random_density_matrix, random_pure_state
from oracles import dagger_oracle, product_counterexample

INV_SQRT2 = 1 / np.sqrt(2)


def psi2():
    return superposition((2, 2, 2), [(1, (0, 1, 1)), (1, (1, 0, 0))])


def tilted_ghz():
    return superposition((2, 2, 2), [(np.sqrt(0.8), (0, 0, 0)), (np.sqrt(0.2), (1, 1, 1))])


def test_beats_hand_picked_lowering_choice():
    res = optimize(tilted_ghz(), "tri-product", restarts=3, budget=300, seed=0)
    # sigma-minus everywhere gives margin sqrt(0.16) - 0.2 = 0.2
    assert res.best_report.margin >= 0.2 - 1e-9
    res2 = optimize(psi2(), "tri-dagger", restarts=2, budget=300, seed=0)
    assert res2.best_report.margin >= 0.5 - 1e-9


def test_maximally_mixed_stays_sound():
    mixed = DensityMatrix((2, 2, 2), np.eye(8) / 8)
    res = optimize(mixed, "tri-dagger", restarts=3, budget=250, seed=2)
    assert res.best_report.margin <= res.best_report.tolerance
    assert not res.best_report.violated


def test_biseparable_inputs_stay_sound_under_search():
    from gmekit import all_bipartitions, random_biseparable

    for seed in (0, 1, 2):
        rho = random_biseparable((2, 2, 2), all_bipartitions(3), 3, seed=seed)
        res = optimize(rho, "tri-dagger", restarts=3, budget=300, seed=seed)
        assert res.best_report.margin <= res.best_report.tolerance
        assert not res.best_report.violated


def test_deterministic_given_seed():
    a = optimize(psi2(), "tri-dagger", restarts=3, budget=150, seed=7)
    b = optimize(psi2(), "tri-dagger", restarts=3, budget=150, seed=7)
    assert a.best_report.margin == b.best_report.margin
    assert a.evaluations == b.evaluations
    for (u1, v1), (u2, v2) in zip(a.best_params.vectors, b.best_params.vectors):
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)


def test_margin_monotone_in_restarts():
    margins = [
        optimize(tilted_ghz(), "tri-product", restarts=r, budget=120, seed=3).best_report.margin
        for r in (1, 2, 4)
    ]
    assert margins[0] <= margins[1] + 1e-15
    assert margins[1] <= margins[2] + 1e-15


def test_best_report_is_fresh_evaluation():
    res = optimize(psi2(), "tri-dagger", restarts=2, budget=200, seed=1)
    again = evaluate_condition("tri-dagger", psi2(), res.best_params.operators())
    assert res.best_report.margin == again.margin
    assert res.best_report.lhs == again.lhs


def test_quad_condition_search():
    psi = superposition((2, 2, 2, 2), [(1, (0, 1, 1, 1)), (1, (1, 0, 0, 0))])
    res = optimize(psi, "quad-dagger", restarts=1, budget=200, seed=0)
    assert res.best_report.margin >= 0.5 - 1e-9


def test_parameter_vectors_are_unit_and_phase_fixed():
    res = optimize(psi2(), "tri-dagger", restarts=2, budget=150, seed=4)
    for u, v in res.best_params.vectors:
        assert abs(np.linalg.norm(u) - 1) < 1e-12
        assert abs(np.linalg.norm(v) - 1) < 1e-12
        for w in (u, v):
            lead = w[np.flatnonzero(w)[0]]
            assert abs(lead.imag) < 1e-12 and lead.real >= 0


def test_validation_errors():
    with pytest.raises(ValidationError):
        optimize(psi2(), "tri-dagger", restarts=2, budget=0, seed=0)
    with pytest.raises(ValidationError):
        optimize(psi2(), "tri-dagger", restarts=0, budget=10, seed=0)
    with pytest.raises(ValidationError):
        optimize(psi2(), "quad-dagger", restarts=1, budget=10, seed=0)
    with pytest.raises(ValidationError):
        optimize(psi2(), "bi1", restarts=1, budget=10, seed=0)
    with pytest.raises(ValidationError):
        RankOneParams(((np.array([1.0, 1.0]), np.array([1.0, 0.0])),))


def test_sigma_minus_is_canonical_start():
    # Restart 0 begins at u=|0>, v=|1>; with budget 1 only that start is
    # evaluated, so the report is the lowering-operator one.
    res = optimize(psi2(), "tri-dagger", restarts=1, budget=1, seed=0)
    assert res.best_report.margin == pytest.approx(0.5, abs=1e-9)
    ops = res.best_params.operators()
    for op in ops:
        assert np.max(np.abs(op - sigma_minus())) < 1e-9


def test_import_does_not_load_scipy_optimize():
    src = os.path.dirname(os.path.dirname(gmekit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # No scipy module at all.
    code = "import sys, gmekit; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_rank_one_params_reject_nan_and_non_vectors():
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for bad in (np.array([np.nan, 0.0]), np.array([np.inf, 0.0]), np.array([[1.0]]),
                np.array([[1.0, 0.0]]), np.array(1.0)):
        with pytest.raises(ValidationError):
            RankOneParams(((bad, e1),))
        with pytest.raises(ValidationError):
            RankOneParams(((e0, bad),))


def test_optimize_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(gmekit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, gmekit\n"
        "psi = gmekit.superposition((2, 2, 2), [(1, (0, 1, 1)), (1, (1, 0, 0))])\n"
        "gmekit.optimize(gmekit.white_noise_mix(psi, 0.8), 'tri-dagger', restarts=2, budget=20)\n"
        "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# --- the closed-form update ----------------------------------------------------------


def _rules(condition, n):
    rule = _product_terms if condition == "tri-product" else _dagger_terms
    return [rule(n, block) for block in all_bipartitions(n)]


def _rss_ratio(condition, state, vectors):
    report = evaluate_condition(condition, state, [np.outer(u, v.conj()) for u, v in vectors])
    rss = math.hypot(*(value for _, value in report.rhs_terms))
    return report.lhs / rss if rss else (math.inf if report.lhs else 0.0)


def _unit(rng, d):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def _with(vectors, k, side, w):
    out = [list(pair) for pair in vectors]
    out[k][side] = w
    return out


def _state(kind, dims, rng):
    if kind == "pure":
        return random_pure_state(rng, dims)
    if kind == "mixture":
        return random_biseparable(dims, all_bipartitions(len(dims)), 3, seed=rng)
    if kind == "noisy":
        return white_noise_mix(random_pure_state(rng, dims), 0.7)
    return random_density_matrix(rng, dims)


DIMS = {"tri-product": [(2, 2, 2), (2, 3, 2)], "tri-dagger": [(2, 2, 2), (2, 3, 2)],
        "quad-dagger": [(2, 2, 2, 2), (2, 3, 2, 2)]}


@given(
    st.sampled_from(SEARCH_CONDITIONS),
    st.integers(0, 1),
    st.sampled_from(["pure", "mixture", "noisy", "matrix"]),
    st.integers(0, 3),
    st.integers(0, 1),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_update_beats_random_vectors(condition, which_dims, kind, k, side, seed):
    rng = np.random.default_rng(seed)
    dims = DIMS[condition][which_dims]
    k = k % len(dims)
    state = _state(kind, dims, rng)
    vectors = [[_unit(rng, d), _unit(rng, d)] for d in dims]
    _, expect = _expectation(state)
    w = _closed_form(expect, _rules(condition, len(dims)), vectors, k, side)
    assert w.shape == (dims[k],) and abs(np.linalg.norm(w) - 1) < 1e-12
    best = _rss_ratio(condition, state, _with(vectors, k, side, w))
    for _ in range(64):
        other = _rss_ratio(condition, state, _with(vectors, k, side, _unit(rng, dims[k])))
        assert best >= other - 1e-12 * max(1.0, other)


@pytest.mark.parametrize("seed", range(5))
def test_update_takes_the_kernel_component(seed):
    # On a pure 4x2x2 state every tri-dagger term holds A†A = |v_a><v_a|, and
    # each term is rank one in v_a, so Q has a kernel in C^4 that a meets:
    # there the rhs is 0 while the lhs is not.
    rng = np.random.default_rng(seed)
    state = random_pure_state(rng, (4, 2, 2))
    vectors = [[_unit(rng, d), _unit(rng, d)] for d in state.dims]
    _, expect = _expectation(state)
    w = _closed_form(expect, _rules("tri-dagger", 3), vectors, 0, 1)
    assert np.all(np.isfinite(w))
    ops = [np.outer(u, v.conj()) for u, v in _with(vectors, 0, 1, w)]
    report = evaluate_condition("tri-dagger", state, ops)
    assert report.lhs > 1e-6 and report.rhs_max < 1e-6


@pytest.mark.parametrize("seed", range(3))
def test_kernel_update_restores_the_flip_pair_optimum(seed):
    # With u = |0>, v = |1> at every other slot of the flip pair, the rhs of
    # the free vector w is w†Qw with Q singular and a in ker Q, exactly, so
    # Q^-1 a does not exist; the update must still return the optimum w.
    psi = superposition((2, 2, 2), [(1, (0, 1, 1)), (1, (1, 0, 0))])
    _, expect = _expectation(psi)
    rng = np.random.default_rng(seed)
    canonical = [[np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]] * 3
    for k in range(3):
        for side in (0, 1):
            vectors = _with(canonical, k, side, _unit(rng, 2))
            w = _closed_form(expect, _rules("tri-dagger", 3), vectors, k, side)
            assert np.all(np.isfinite(w))
            ops = [np.outer(u, v.conj()) for u, v in _with(vectors, k, side, w)]
            assert evaluate_condition("tri-dagger", psi, ops).margin >= 0.5 - 1e-9
    res = optimize(psi, "tri-dagger", restarts=3, budget=20, seed=seed)
    assert res.evaluations > 3 and res.best_report.margin >= 0.5 - 1e-9


@pytest.mark.parametrize("n, condition", [(3, "tri-dagger"), (4, "quad-dagger")])
@pytest.mark.parametrize("x, y", [(0.01, 0.9), (0.2, 0.7), (0.5, 0.5)])
def test_search_keeps_rss_bound_on_product_counterexample(n, condition, x, y):
    rho, _, _ = product_counterexample(n, x, y)
    report = optimize(rho, condition, restarts=3, budget=40, seed=n).best_report
    rss = math.hypot(*(value for _, value in report.rhs_terms))
    assert report.lhs <= rss + report.tolerance
    assert not report.sum_violated


@pytest.mark.parametrize("seed", range(4))
def test_best_margin_is_reproducible_on_pure_states(seed):
    # On pure states the search can drive every rhs term to 0, where a term
    # is the square root of roundoff; the margin it returns must still match
    # an independent evaluation of the same operators.
    rng = np.random.default_rng(seed)
    psi = random_pure_state(rng, (3, 3, 3))
    res = optimize(psi, "tri-dagger", restarts=3, budget=100, seed=seed)
    lhs, terms = dagger_oracle(psi.amplitudes, res.best_params.operators())
    assert abs(res.best_report.margin - (lhs - max(terms.values()))) <= 1e-10

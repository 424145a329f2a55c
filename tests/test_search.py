import os
import subprocess
import sys

import numpy as np
import pytest

import gmekit
from gmekit import (
    DensityMatrix,
    RankOneParams,
    ValidationError,
    evaluate_condition,
    optimize,
    sigma_minus,
    superposition,
)

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
    # Restart 0 begins at u=|0>, v=|1>; with budget 1 the raw start already
    # scores at least as well as the hand value up to the chart's roundoff.
    res = optimize(psi2(), "tri-dagger", restarts=1, budget=1, seed=0)
    assert res.best_report.margin == pytest.approx(0.5, abs=1e-9)
    ops = res.best_params.operators()
    for op in ops:
        assert np.max(np.abs(op - sigma_minus())) < 1e-9


def test_import_does_not_load_scipy_optimize():
    src = os.path.dirname(os.path.dirname(gmekit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # No scipy module at all: scipy.optimize is loaded on first use by search.
    code = "import sys, gmekit; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

"""Mixture-form density states: sum_j w_j|psi_j><psi_j| + mu*I/D built by
the library's constructors, against the same matrix given to
``DensityMatrix(dims, matrix)``, which is fully validated and evaluated on
the D x D path."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gmekit import (
    DensityMatrix,
    ValidationError,
    all_bipartitions,
    evaluate_condition,
    haar_random_state,
    random_biseparable,
    sigma_minus,
    state_from_dict,
    superposition,
    white_noise_mix,
)
from gmekit.cli import main
from helpers import random_matrix, random_pure_state
from oracles import mixture_matrix, random_biseparable_draws

# Per party count: every condition, and the bi1/bi2 blocks to use.
CASES = {
    3: [("tri-dagger", None), ("tri-product", None),
        ("bi1", ((0, 2), (1,))), ("bi2", ((0, 2), (1,)))],
    4: [("quad-dagger", None), ("bi1", ((1, 3), (0, 2))), ("bi2", ((1, 3), (0, 2)))],
}


def _random_ops(rng, dims, blocks):
    """Non-hermitian operators, one per party or one per block."""
    parties = dims if blocks is None else [math.prod(dims[i] for i in b) for b in blocks]
    return [random_matrix(rng, d, d) for d in parties]


def _random_mixture(rng, dims, size, noise):
    d = math.prod(dims)
    weights = rng.uniform(0.1, 1.0, size)
    weights *= (1.0 - noise) / weights.sum()
    components = [haar_random_state(d, rng) for _ in range(size)]
    return weights, components


def _full(state):
    """The same state as a caller-given matrix: full validation, D x D path."""
    full = DensityMatrix(state.dims, state.matrix)
    assert full._rows is None
    return full


def assert_same_report(got, want):
    assert [label for label, _ in got.rhs_terms] == [label for label, _ in want.rhs_terms]
    for (_, a), (_, b) in zip(got.rhs_terms, want.rhs_terms):
        assert abs(a - b) <= 1e-12
    for key in ("lhs", "rhs_max", "rhs_sum", "margin"):
        assert abs(getattr(got, key) - getattr(want, key)) <= 1e-12, key
    assert got.violated == want.violated


# --- the constructor ------------------------------------------------------------


def test_mixture_constructor_rejects_invalid_decompositions():
    dims = (2, 2)
    e0, e1 = np.eye(4, dtype=complex)[:2]
    DensityMatrix._mixture(dims, [0.5, 0.25], [e0, e1], 0.25)
    bad = [
        ([1.2, -0.2], [e0, e1], 0.0),            # negative weight
        ([0.5, 0.5], [e0, e1], -1e-3),           # negative noise
        ([0.5, 0.5], [e0, 1.001 * e1], 0.0),     # non-unit row
        ([0.5, 0.5], [e0, 0 * e1], 0.0),         # zero row
        ([0.5, 0.4], [e0, e1], 0.0),             # sum w + mu = 0.9
        ([0.5, 0.5], [e0, e1], 0.1),             # sum w + mu = 1.1
        ([np.nan, 0.5], [e0, e1], 0.5),
        ([np.inf, 0.5], [e0, e1], 0.0),
        ([0.5, 0.5], [e0, np.full(4, np.nan)], 0.0),
        ([0.5, 0.5], [e0, e1], np.nan),
        ([0.5, 0.5], [e0, e1], np.inf),
    ]
    for weights, components, noise in bad:
        with pytest.raises(ValidationError):
            DensityMatrix._mixture(dims, weights, components, noise)


def test_mixture_matrix_is_frozen_and_passes_full_validation():
    rng = np.random.default_rng(4)
    dims = (2, 3, 2)
    weights, components = _random_mixture(rng, dims, 3, 0.3)
    state = DensityMatrix._mixture(dims, weights, components, 0.3)
    assert state.dims == dims and state.dim == 12
    for arr in (state.matrix, state._rows):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    np.testing.assert_allclose(state.matrix, mixture_matrix(weights, components, 0.3), atol=1e-12)
    full = DensityMatrix(dims, state.matrix)
    assert np.array_equal(full.matrix, state.matrix)
    assert "_rows" not in repr(state) and "_noise" not in repr(state)


def test_constructors_build_mixture_form_states():
    psi = superposition((2, 2, 2), [(1, (0, 1, 1)), (1, (1, 0, 0))])
    proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
    doc_terms = [{"occupation": [0, 1, 1], "re": 1.0}, {"occupation": [1, 0, 0], "re": 1.0}]
    built = {
        "density_matrix": psi.density_matrix(),
        "white_noise_mix": white_noise_mix(psi, 0.6),
        "white_noise file": state_from_dict(
            {"dims": [2, 2, 2], "kind": "white_noise", "s": 0.6, "terms": doc_terms}),
        "mixture file": state_from_dict({"dims": [2, 2, 2], "kind": "mixture", "components": [
            {"weight": 3.0, "terms": doc_terms},
            {"weight": 1.0, "terms": [{"occupation": [0, 0, 0], "re": 1.0}]},
        ]}),
        "random_biseparable": random_biseparable((2, 2, 2), all_bipartitions(3), 3, seed=1),
    }
    for name, state in built.items():
        assert state._rows is not None, name
    np.testing.assert_allclose(built["density_matrix"].matrix, proj, atol=1e-15)
    noisy = 0.6 * proj + 0.4 * np.eye(8) / 8
    np.testing.assert_allclose(built["white_noise file"].matrix, noisy, atol=1e-15)
    assert built["white_noise_mix"]._noise == pytest.approx(0.4)
    ground = np.zeros((8, 8))
    ground[0, 0] = 1.0
    np.testing.assert_allclose(built["mixture file"].matrix, 0.75 * proj + 0.25 * ground, atol=1e-15)
    assert DensityMatrix((2, 2, 2), proj)._rows is None


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 3, 3, 3), (4, 4, 4, 4)])
def test_random_biseparable_matches_outer_product_rebuild(dims):
    parts = all_bipartitions(len(dims))
    for seed in (0, 17, 2**31 + 5):
        state = random_biseparable(dims, parts, len(parts) + 1, seed)
        weights, components = random_biseparable_draws(dims, parts, len(parts) + 1, seed)
        assert np.max(np.abs(state.matrix - mixture_matrix(weights, components))) <= 1e-12


# --- same reports as the full-validation density path -------------------------


@pytest.mark.parametrize(
    "dims, seeds", [((2, 2, 2), 20), ((2, 3, 2), 20), ((3, 3, 3, 3), 5), ((4, 4, 4, 4), 2)]
)
def test_mixture_reports_match_full_density_path(dims, seeds):
    # Per seed: mu = 0 (random_biseparable), mu > 0 with several components,
    # and white noise on a Haar-random state.
    parts = all_bipartitions(len(dims))
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        states = [
            random_biseparable(dims, parts, len(parts), int(rng.integers(2**32))),
            DensityMatrix._mixture(dims, *_random_mixture(rng, dims, 3, 0.35), 0.35),
            white_noise_mix(random_pure_state(rng, dims), rng.uniform(0.2, 0.9)),
        ]
        for state in states:
            assert state._rows is not None
            full = _full(state)
            for condition, blocks in CASES[len(dims)]:
                ops = _random_ops(rng, dims, blocks)
                assert_same_report(
                    evaluate_condition(condition, state, ops, blocks=blocks),
                    evaluate_condition(condition, full, ops, blocks=blocks),
                )


@pytest.mark.parametrize("n", [3, 4])
def test_mixture_verdicts_match_full_density_path_across_threshold(n):
    # The noisy flip pair with lowering operators crosses its threshold, so
    # both verdicts occur and each must agree.
    dims = (2,) * n
    flip = superposition(dims, [(1, (0,) + (1,) * (n - 1)), (1, (1,) + (0,) * (n - 1))])
    condition = "tri-dagger" if n == 3 else "quad-dagger"
    verdicts = set()
    for s in np.linspace(0.0, 1.0, 21):
        state = white_noise_mix(flip, s)
        report = evaluate_condition(condition, state, [sigma_minus()] * n)
        assert_same_report(report, evaluate_condition(condition, _full(state), [sigma_minus()] * n))
        verdicts.add(report.violated)
    assert verdicts == {True, False}


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_mixture_property_over_weights_and_components(raw_weights, raw_noise, seed):
    total = sum(raw_weights) + raw_noise
    assume(total > 1e-6)
    weights = [w / total for w in raw_weights]
    noise = raw_noise / total
    rng = np.random.default_rng(seed)
    dims = (2, 3, 2)
    components = [haar_random_state(12, rng) for _ in weights]
    state = DensityMatrix._mixture(dims, weights, components, noise)
    rebuilt = mixture_matrix(weights, components, noise)
    assert np.max(np.abs(state.matrix - rebuilt)) <= 1e-12
    full = DensityMatrix(dims, rebuilt)
    for condition, blocks in CASES[3]:
        ops = _random_ops(rng, dims, blocks)
        assert_same_report(
            evaluate_condition(condition, state, ops, blocks=blocks),
            evaluate_condition(condition, full, ops, blocks=blocks),
        )


def test_pure_state_and_its_density_matrix_agree():
    rng = np.random.default_rng(8)
    for dims in ((2, 2, 2), (3, 3, 3, 3)):
        psi = random_pure_state(rng, dims)
        for condition, blocks in CASES[len(dims)]:
            ops = _random_ops(rng, dims, blocks)
            want = evaluate_condition(condition, psi, ops, blocks=blocks)
            for state in (psi.density_matrix(), _full(psi.density_matrix())):
                assert_same_report(evaluate_condition(condition, state, ops, blocks=blocks), want)


# --- gme soundness prints what it printed before mixture-form states ----------


@pytest.mark.parametrize(
    "argv, max_margin",
    [
        (["--dims", "2", "2", "2", "--condition", "tri-dagger", "--trials", "300",
          "--seed", "7"], -0.11969833421599345),
        (["--dims", "4", "4", "4", "4", "--condition", "quad-dagger", "--trials", "40",
          "--seed", "11"], -0.04487549917853251),
    ],
)
def test_soundness_output_is_pinned(argv, max_margin):
    # Values printed when random_biseparable built a validated D x D matrix.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["soundness", *argv]) == 0
    doc = json.loads(out.getvalue())
    assert abs(doc["max_margin"] - max_margin) <= 1e-12
    assert doc["violations"] == 0

import json
import math
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gmekit.states as states_module
import gmekit.witness as witness_module
from gmekit import (
    NumericalConsistencyError,
    PureState,
    ShapeError,
    ValidationError,
    all_bipartitions,
    bipartite_dagger,
    bipartite_product,
    evaluate_condition,
    ketbra,
    noise_margin_curve,
    noise_threshold,
    quadripartite_dagger,
    qutrit_lower,
    qutrit_raise,
    random_biseparable,
    sigma_minus,
    superposition,
    tripartite_dagger,
    tripartite_product,
    white_noise_mix,
)
from gmekit.witness import CONDITION_NAMES, _expect_rows, _expectation, _positive
from gmekit.witness import condition_arity
from helpers import (
    random_density_matrix,
    random_hermitian,
    random_matrix,
    random_pure_state,
    random_rank_one,
)
from oracles import (
    bipartite_bruteforce,
    block_expectation_bruteforce,
    dagger_oracle,
    kron_trace,
    label_bipartition,
    product_oracle,
    product_expectation_bruteforce,
    product_expectation_density_bruteforce,
)

SM = sigma_minus()
SX = np.array([[0, 1], [1, 0]], dtype=complex)
INV_SQRT2 = 1 / np.sqrt(2)


def psi2(c0=INV_SQRT2, c1=INV_SQRT2):
    return superposition((2, 2, 2), [(c0, (0, 1, 1)), (c1, (1, 0, 0))])


def ghz(c0=INV_SQRT2, c1=INV_SQRT2):
    return superposition((2, 2, 2), [(c0, (0, 0, 0)), (c1, (1, 1, 1))])


# --- bipartite conditions ---------------------------------------------------


def test_bipartite_dagger_product_state_clean():
    psi = superposition((2, 2), [(1, (0, 1))])
    report = bipartite_dagger(psi, SM, SM)
    assert report.lhs == pytest.approx(0.0, abs=1e-15)
    assert not report.violated


def test_bipartite_dagger_detects_psi_plus():
    psi = superposition((2, 2), [(1, (0, 1)), (1, (1, 0))])
    report = bipartite_dagger(psi, SM, SM)
    assert report.lhs == pytest.approx(0.5, abs=1e-14)
    assert report.rhs_max == pytest.approx(0.0, abs=1e-14)
    assert report.violated


def test_bipartite_product_product_state_clean():
    psi = superposition((2, 2), [(1, (0, 1))])
    report = bipartite_product(psi, SM, SM)
    assert not report.violated


def test_bipartite_product_bell_boundary_and_tilted():
    bell = superposition((2, 2), [(1, (0, 0)), (1, (1, 1))])
    report = bipartite_product(bell, SM, SM)
    assert report.lhs == pytest.approx(0.5, abs=1e-14)
    assert report.rhs_max == pytest.approx(0.5, abs=1e-14)
    assert not report.violated  # margin 0 sits on the boundary
    tilted = superposition((2, 2), [(np.sqrt(0.8), (0, 0)), (np.sqrt(0.2), (1, 1))])
    report = bipartite_product(tilted, SM, SM)
    assert report.lhs == pytest.approx(0.4, abs=1e-14)
    assert report.rhs_max == pytest.approx(0.2, abs=1e-14)
    assert report.violated


def test_bipartite_hermitian_operators_never_fire():
    rng = np.random.default_rng(2)
    bell = superposition((2, 2), [(1, (0, 0)), (1, (1, 1))])
    states = [bell.density_matrix()] + [random_density_matrix(rng, (2, 2)) for _ in range(10)]
    for rho in states:
        assert not bipartite_dagger(rho, SX, SX).violated
        assert not bipartite_product(rho, SX, SX).violated


def test_bipartite_block_validation():
    psi = superposition((2, 2), [(1, (0, 1))])
    with pytest.raises(ValidationError):
        bipartite_dagger(psi, SM, SM, blocks=((0,), (0, 1)))
    with pytest.raises(ValidationError):
        bipartite_dagger(psi, SM, SM, blocks=((0, 1), ()))
    with pytest.raises(ValidationError):  # a block lists its subsystems in order
        bipartite_dagger(psi2(), np.eye(4), SM, blocks=((2, 0), (1,)))


@pytest.mark.parametrize("name", ["tri-product", "tri-dagger", "quad-dagger"])
def test_multipartite_conditions_reject_blocks(name):
    n = 4 if name == "quad-dagger" else 3
    psi = superposition((2,) * n, [(1, (0,) + (1,) * (n - 1)), (1, (1,) + (0,) * (n - 1))])
    for blocks in (((1,), (0, 5)), ((0,), tuple(range(1, n)))):
        with pytest.raises(ValidationError):
            evaluate_condition(name, psi, [SM] * n, blocks=blocks)
    assert evaluate_condition(name, psi, [SM] * n, blocks=None).rhs_terms


@pytest.mark.parametrize(
    "dims, blocks",
    [
        ((2, 3), None),
        ((2, 3, 2), None),
        ((2, 3, 2), ((0, 2), (1,))),
        ((2, 3, 2), ((1,), (0, 2))),
        ((2, 2, 3, 2), ((1, 3), (0, 2))),
    ],
)
def test_bipartite_conditions_match_bruteforce_oracle(dims, blocks):
    rng = np.random.default_rng(len(dims) + sum(dims))
    left, right = blocks or ((0,), tuple(range(1, len(dims))))
    op_l = random_matrix(rng, *[math.prod(dims[i] for i in left)] * 2)
    op_m = random_matrix(rng, *[math.prod(dims[i] for i in right)] * 2)
    label = "".join("abcd"[i] for i in left) + "|" + "".join("abcd"[i] for i in right)
    pure = random_pure_state(rng, dims)
    rho = random_density_matrix(rng, dims)
    for state, data in ((pure, pure.amplitudes), (rho, rho.matrix)):
        expected = bipartite_bruteforce(data, dims, left, right, op_l, op_m)
        reports = (
            bipartite_dagger(state, op_l, op_m, blocks=blocks),
            bipartite_product(state, op_l, op_m, blocks=blocks),
        )
        for report, (lhs, term) in zip(reports, expected):
            assert abs(report.lhs - lhs) <= 1e-12
            assert report.rhs_terms[0][0] == label and len(report.rhs_terms) == 1
            assert abs(report.rhs_max - term) <= 1e-12


# --- tripartite product form --------------------------------------------------


def test_tri_product_ghz_family():
    thetas = [t for t in np.linspace(0.05, np.pi / 2 - 0.05, 25) if abs(t - np.pi / 4) > 1e-6]
    for theta in thetas:
        report = tripartite_product(ghz(np.cos(theta), np.sin(theta)), SM, SM, SM)
        assert report.lhs == pytest.approx(abs(np.cos(theta) * np.sin(theta)), abs=1e-12)
        for _, term in report.rhs_terms:
            assert term == pytest.approx(np.sin(theta) ** 2, abs=1e-12)
        assert report.violated == (np.cos(theta) > np.sin(theta))


def test_tri_product_boundary_and_mixed():
    assert abs(tripartite_product(ghz(), SM, SM, SM).margin) < 1e-12
    from gmekit import DensityMatrix

    mixed = DensityMatrix((2, 2, 2), np.eye(8) / 8)
    report = tripartite_product(mixed, SM, SM, SM)
    assert report.lhs == pytest.approx(0.0, abs=1e-15)
    assert not report.violated


# --- tripartite dagger form ----------------------------------------------------


def test_tri_dagger_psi2_always_fires():
    rng = np.random.default_rng(0)
    for _ in range(25):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c /= np.linalg.norm(c)
        report = tripartite_dagger(psi2(c[0], c[1]), SM, SM, SM)
        assert report.rhs_max == 0.0
        assert report.lhs == pytest.approx(abs(c[0] * c[1]), abs=1e-14)
        assert report.violated


CONDITION_LABELS = {
    "bi1": ["a|b"],
    "bi2": ["a|b"],
    "tri-product": ["a|bc", "b|ac", "c|ab"],
    "tri-dagger": ["ab|c", "ac|b", "bc|a"],
    "quad-dagger": ["a|bcd", "b|acd", "c|abd", "d|abc", "ab|cd", "ac|bd", "ad|bc"],
}


def test_every_condition_pins_its_labels_and_order():
    rng = np.random.default_rng(2)
    for name, labels in CONDITION_LABELS.items():
        dims = (2,) * len(labels[0].replace("|", ""))
        ops = [random_matrix(rng, 2, 2) for _ in dims]
        report = evaluate_condition(name, random_pure_state(rng, dims), ops)
        assert [label for label, _ in report.rhs_terms] == labels, name
    psi = random_pure_state(rng, (2, 3, 2))
    for blocks, label in [(((0, 2), (1,)), "ac|b"), (((1,), (0, 2)), "b|ac"), (None, "a|bc")]:
        left, right = blocks or ((0,), (1, 2))
        ops = [random_matrix(rng, *[math.prod((2, 3, 2)[i] for i in b)] * 2) for b in (left, right)]
        for name in ("bi1", "bi2"):
            report = evaluate_condition(name, psi, ops, blocks=blocks)
            assert [lbl for lbl, _ in report.rhs_terms] == [label]


@pytest.mark.parametrize(
    "condition, dims, split",
    [
        ("bi1", (2, 3), 1),
        ("bi1", (2, 3, 2), 2),
        ("bi2", (3, 2), 1),
        ("bi2", (2, 3, 2), 1),
        ("tri-product", (2, 3, 2), None),
        ("tri-dagger", (3, 2, 2), None),
        ("quad-dagger", (2, 2, 3, 2), None),
    ],
)
def test_conditions_match_bipartition_rule_oracles(condition, dims, split):
    # bi1/bi2 with the contiguous blocks (first `split` subsystems | rest)
    # are the two-party rule on L x M.
    rng = np.random.default_rng(sum(dims) + len(condition))
    parties = list(dims) if split is None else [math.prod(dims[:split]), math.prod(dims[split:])]
    blocks = None if split is None else (tuple(range(split)), tuple(range(split, len(dims))))
    oracle = product_oracle if condition in ("bi2", "tri-product") else dagger_oracle
    for _ in range(5):
        ops = [random_matrix(rng, d, d) for d in parties]  # non-hermitian
        for state in (random_pure_state(rng, dims), random_density_matrix(rng, dims)):
            data = state.amplitudes if isinstance(state, PureState) else state.matrix
            lhs, terms = oracle(data, ops)
            report = evaluate_condition(condition, state, ops, blocks=blocks)
            assert abs(report.lhs - lhs) <= 1e-12
            assert len(report.rhs_terms) == len(terms)
            for label, value in report.rhs_terms:
                key = label_bipartition("a|b") if split else label_bipartition(label)
                assert abs(value - terms[key]) <= 1e-12


def test_tri_dagger_rhs_labels():
    report = tripartite_dagger(psi2(), SM, SM, SM)
    assert [label for label, _ in report.rhs_terms] == ["ab|c", "ac|b", "bc|a"]


def test_tri_dagger_white_noise_threshold_half():
    for s, expect in [(0.45, False), (0.5, False), (0.55, True)]:
        rho = white_noise_mix(psi2(), s)
        report = tripartite_dagger(rho, SM, SM, SM)
        assert report.lhs == pytest.approx(s / 2, abs=1e-12)
        assert report.rhs_max == pytest.approx(np.sqrt((1 - s) / 8), abs=1e-12)
        assert report.violated == expect


def test_tri_dagger_qutrit_chain_condition():
    ops = (qutrit_lower(), qutrit_raise(), qutrit_lower())
    rng = np.random.default_rng(8)
    for _ in range(20):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c /= np.linalg.norm(c)
        psi = superposition(
            (3, 3, 3), [(c[0], (0, 0, 2)), (c[1], (1, 1, 1)), (c[2], (2, 2, 0))]
        )
        report = tripartite_dagger(psi, *ops)
        lhs_expected = abs(np.conj(c[1]) * c[0] + np.conj(c[2]) * c[1])
        assert report.lhs == pytest.approx(lhs_expected, abs=1e-12)
        assert report.rhs_max == pytest.approx(abs(c[1]), abs=1e-12)
        assert report.violated == (lhs_expected > abs(c[1]) + report.tolerance)


def test_tri_dagger_pure_and_density_paths_agree():
    rng = np.random.default_rng(42)
    for _ in range(20):
        psi = random_pure_state(rng, (2, 3, 2))
        ops = [random_rank_one(rng, d) for d in (2, 3, 2)]
        r_pure = tripartite_dagger(psi, *ops)
        r_dm = tripartite_dagger(psi.density_matrix(), *ops)
        assert r_pure.lhs == pytest.approx(r_dm.lhs, abs=1e-12)
        for (_, a), (_, b) in zip(r_pure.rhs_terms, r_dm.rhs_terms):
            assert a == pytest.approx(b, abs=1e-12)


# --- quadripartite dagger form ---------------------------------------------------


QUAD_PROJECTOR_STATES = {
    "a|bcd": (1, 1, 1, 1),
    "b|acd": (1, 1, 0, 0),
    "c|abd": (1, 0, 1, 0),
    "d|abc": (1, 0, 0, 1),
    "ab|cd": (1, 0, 1, 1),
    "ac|bd": (1, 1, 0, 1),
    "ad|bc": (1, 1, 1, 0),
}


def test_quad_rhs_terms_are_the_seven_projectors():
    # With lowering operators everywhere, each rhs operator projects onto a
    # single basis state; evaluating on that state makes exactly its own
    # term 1 and every other term 0.
    dims = (2, 2, 2, 2)
    for label, occ in QUAD_PROJECTOR_STATES.items():
        state = superposition(dims, [(1, occ)])
        report = quadripartite_dagger(state, SM, SM, SM, SM)
        terms = dict(report.rhs_terms)
        assert terms[label] == pytest.approx(1.0, abs=1e-14)
        for other, value in terms.items():
            if other != label:
                assert value == pytest.approx(0.0, abs=1e-14)


def test_quad_detects_flip_pair():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c /= np.linalg.norm(c)
        psi = superposition((2, 2, 2, 2), [(c[0], (0, 1, 1, 1)), (c[1], (1, 0, 0, 0))])
        report = quadripartite_dagger(psi, SM, SM, SM, SM)
        assert report.lhs == pytest.approx(abs(c[0] * c[1]), abs=1e-14)
        assert report.rhs_max == 0.0
        assert report.violated


def test_quad_white_noise_threshold():
    threshold = (np.sqrt(17) - 1) / 8
    psi = superposition((2, 2, 2, 2), [(1, (0, 1, 1, 1)), (1, (1, 0, 0, 0))])
    for s, expect in [(threshold - 0.01, False), (threshold + 0.01, True)]:
        report = quadripartite_dagger(white_noise_mix(psi, s), SM, SM, SM, SM)
        assert report.violated == expect


# --- cross-cutting properties -------------------------------------------------


def test_soundness_on_random_biseparable_states():
    rng = np.random.default_rng(100)
    tri_parts = all_bipartitions(3)
    for _ in range(150):
        rho = random_biseparable((2, 2, 2), tri_parts, 3, rng)
        ops = [random_rank_one(rng, 2) for _ in range(3)]
        assert tripartite_dagger(rho, *ops).margin <= 1e-10
        assert tripartite_product(rho, *ops).margin <= 1e-10
    quad_parts = all_bipartitions(4)
    for _ in range(75):
        rho = random_biseparable((2, 2, 2, 2), quad_parts, 7, rng)
        ops = [random_rank_one(rng, 2) for _ in range(4)]
        assert quadripartite_dagger(rho, *ops).margin <= 1e-10


def test_hermitian_operators_never_fire():
    rng = np.random.default_rng(101)
    for _ in range(50):
        rho = random_density_matrix(rng, (2, 2, 2))
        ops = [random_hermitian(rng, 2) for _ in range(3)]
        assert not tripartite_dagger(rho, *ops).violated
        assert not tripartite_product(rho, *ops).violated


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_dominance_max_below_sum(seed):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(rng, (2, 2, 2))
    ops = [random_rank_one(rng, 2) for _ in range(3)]
    report = tripartite_dagger(psi, *ops)
    assert report.rhs_max <= report.rhs_sum + 1e-15
    if report.sum_violated:
        assert report.violated


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_scale_covariance(seed):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(rng, (2, 2, 2))
    ops = [random_rank_one(rng, 2) for _ in range(3)]
    lam = complex(rng.uniform(0.2, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    for condition in (tripartite_dagger, tripartite_product):
        base = condition(psi, *ops)
        scaled = condition(psi, lam * ops[0], ops[1], ops[2])
        assert scaled.lhs == pytest.approx(abs(lam) * base.lhs, rel=1e-10, abs=1e-12)
        for (_, a), (_, b) in zip(scaled.rhs_terms, base.rhs_terms):
            assert a == pytest.approx(abs(lam) * b, rel=1e-10, abs=1e-12)
        if abs(base.margin) > 1e-6:  # clear of the boundary, verdict must survive scaling
            assert scaled.violated == base.violated


def test_report_serialisation():
    report = tripartite_dagger(psi2(), SM, SM, SM)
    doc = report.to_dict()
    assert set(doc) == {
        "lhs", "rhs_terms", "rhs_sum", "rhs_max", "margin",
        "violated", "tolerance", "sum_margin", "sum_violated",
    }
    row = report.csv_row()
    fields = row.split(",")
    assert len(fields) == 5
    assert fields[-1] == "true"
    assert float(fields[0]) == pytest.approx(report.lhs)


def test_positive_clamp_and_consistency_error():
    assert _positive(complex(-1e-12), 1e-10, "x") == 0.0
    assert _positive(complex(0.25), 1e-10, "x") == 0.25
    with pytest.raises(NumericalConsistencyError):
        _positive(complex(-1e-6), 1e-10, "x")


def test_condition_validation_errors():
    psi = psi2()
    with pytest.raises(ShapeError):
        tripartite_dagger(superposition((2, 2), [(1, (0, 1))]), SM, SM, SM)
    with pytest.raises(ShapeError):
        quadripartite_dagger(psi, SM, SM, SM, SM)
    with pytest.raises(ShapeError):
        tripartite_dagger(psi, ketbra(3, 0, 1), SM, SM)
    with pytest.raises(ValidationError):
        evaluate_condition("nope", psi, [SM, SM, SM])
    with pytest.raises(ValidationError):
        evaluate_condition("tri-dagger", psi, [SM, SM])
    with pytest.raises(ValidationError):
        tripartite_dagger(psi, SM, SM, SM, tolerance=-1.0)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_tolerance_is_rejected(tolerance):
    psi, ops = psi2(), [SM, SM, SM]
    with pytest.raises(ValidationError):
        evaluate_condition("tri-dagger", psi, ops, tolerance=tolerance)
    with pytest.raises(ValidationError):
        noise_threshold(psi, ops, "tri-dagger", tolerance=tolerance)
    with pytest.raises(ValidationError):
        noise_margin_curve(psi, ops, "tri-dagger", [0.5], tolerance=tolerance)


def test_noise_threshold_bisection():
    thr = noise_threshold(psi2(), [SM, SM, SM], "tri-dagger")
    assert thr == pytest.approx(0.5, abs=1e-9)
    product = superposition((2, 2, 2), [(1, (0, 0, 0))])
    assert noise_threshold(product, [SM, SM, SM], "tri-dagger") is None


def test_noise_threshold_agrees_with_report_verdicts():
    ops = [SM, SM, SM]
    thr = noise_threshold(psi2(), ops, "tri-dagger", tolerance=0.1)

    def violated(s):
        return evaluate_condition(
            "tri-dagger", white_noise_mix(psi2(), s), ops, tolerance=0.1
        ).violated

    assert violated(thr + 1e-6)
    assert not violated(thr - 1e-6)
    # the pure state's margin is 0.5, so no mixture clears a 0.6 tolerance
    assert noise_threshold(psi2(), ops, "tri-dagger", tolerance=0.6) is None


QUAD_FLIP = superposition((2, 2, 2, 2), [(1, (0, 1, 1, 1)), (1, (1, 0, 0, 0))])


def test_noise_threshold_exact_at_zero_tolerance():
    assert abs(noise_threshold(psi2(), [SM] * 3, "tri-dagger", tolerance=0.0) - 0.5) <= 1e-12
    quad = noise_threshold(QUAD_FLIP, [SM] * 4, "quad-dagger", tolerance=0.0)
    assert abs(quad - (np.sqrt(17) - 1) / 8) <= 1e-12


# Two-term states each condition detects with |0><1| operators, written in a
# random local basis; the operators are rank-one perturbations of |e0><e1|
# (nonzero trace) and the state gets a random admixture.
DETECTED = {
    "bi1": ((0, 1), (1, 0)),
    "bi2": ((0, 0), (1, 1)),
    "tri-product": ((0, 0, 0), (1, 1, 1)),
    "tri-dagger": ((0, 1, 1), (1, 0, 0)),
    "quad-dagger": ((0, 1, 1, 1), (1, 0, 0, 0)),
}


def _perturbed_detected_case(condition, seed):
    rng = np.random.default_rng(seed)
    occupations = DETECTED[condition]
    n = len(occupations[0])

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    delta, eta = rng.uniform(0.0, 0.35, size=2)
    bases = [np.linalg.qr(gauss(2, 2))[0] for _ in range(n)]
    ops = [
        np.outer(e[:, 0] + delta * gauss(2), (e[:, 1] + delta * gauss(2)).conj()) for e in bases
    ]
    amps = sum(
        c * np.exp(2j * np.pi * rng.random())
        * reduce(np.kron, [bases[k][:, o] for k, o in enumerate(occ)])
        for c, occ in zip((0.8, 0.6), occupations)
    )
    amps = amps / np.linalg.norm(amps) + eta * gauss(2**n) / 2 ** (n / 2)
    return PureState((2,) * n, amps / np.linalg.norm(amps)), ops


@pytest.mark.parametrize("condition", sorted(DETECTED))
def test_white_noise_family_agrees_with_density_path(condition):
    grid = np.linspace(0.0, 1.0, 201)
    found = 0
    for seed in range(6):
        psi, ops = _perturbed_detected_case(condition, seed)
        for tol in (0.0, 0.02):
            curve = noise_margin_curve(psi, ops, condition, grid, tolerance=tol)
            dense = [
                evaluate_condition(condition, white_noise_mix(psi, s), ops, tolerance=tol)
                for s in grid
            ]
            for fast, ref in zip(curve, dense):
                assert [label for label, _ in fast.rhs_terms] == [
                    label for label, _ in ref.rhs_terms
                ]
                values = [fast.lhs - ref.lhs, fast.margin - ref.margin, fast.rhs_sum - ref.rhs_sum]
                values += [a - b for (_, a), (_, b) in zip(fast.rhs_terms, ref.rhs_terms)]
                assert max(abs(v) for v in values) <= 1e-12
                assert fast.violated == ref.violated or abs(ref.margin - tol) <= 1e-12
            violated = np.array([r.violated for r in dense])
            thr = noise_threshold(psi, ops, condition, tolerance=tol)
            assert (thr is None) == (not violated.any())
            if thr is None:
                continue
            found += 1
            assert not violated[grid < thr - 1e-7].any()
            above = evaluate_condition(
                condition, white_noise_mix(psi, min(thr + 1e-7, 1.0)), ops, tolerance=tol
            )
            assert above.violated
            assert noise_margin_curve(psi, ops, condition, [thr], tolerance=tol)[0].violated
    assert found >= 4


def test_noise_threshold_on_non_monotone_margins():
    # Detected cases whose margin falls somewhere along s: no longer refused,
    # since the verdict stays monotone where the margin is not.
    grid = np.linspace(0.0, 1.0, 201)
    checked = 0
    for condition in DETECTED:
        for seed in range(6):
            psi, ops = _perturbed_detected_case(condition, seed)
            margins = [r.margin for r in noise_margin_curve(psi, ops, condition, grid)]
            thr = noise_threshold(psi, ops, condition)
            if thr is None or not np.any(np.diff(margins) < -1e-6):
                continue
            checked += 1
            for s, want in ((thr + 1e-7, True), (thr - 1e-7, False)):
                report = evaluate_condition(condition, white_noise_mix(psi, s), ops)
                assert report.violated == want
    assert checked >= 1


def test_noise_functions_build_no_density_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a density matrix was built")

    monkeypatch.setattr(witness_module, "white_noise_mix", refuse)
    monkeypatch.setattr(states_module, "white_noise_mix", refuse)
    monkeypatch.setattr(states_module.DensityMatrix, "__post_init__", refuse)
    for condition in DETECTED:
        psi, ops = _perturbed_detected_case(condition, 0)
        assert len(noise_margin_curve(psi, ops, condition, np.linspace(0, 1, 11))) == 11
        noise_threshold(psi, ops, condition)


@pytest.mark.parametrize("s", [1.5, -0.1, float("nan"), float("inf")])
def test_noise_margin_curve_rejects_weights_outside_unit_interval(s):
    with pytest.raises(ValidationError):
        noise_margin_curve(psi2(), [SM] * 3, "tri-dagger", [0.5, s])


def test_scan_noise_grid_past_one_is_an_input_error(tmp_path, capsys):
    from gmekit.cli import main

    path = tmp_path / "psi.json"
    path.write_text(json.dumps({
        "dims": [2, 2, 2],
        "kind": "pure",
        "terms": [{"occupation": [0, 1, 1], "re": 1.0}, {"occupation": [1, 0, 0], "re": 1.0}],
    }))
    argv = ["scan-noise", "--state", str(path), "--ops", "sigma_minus", "sigma_minus",
            "sigma_minus", "--condition", "tri-dagger", "--s-stop", "1.5"]
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("condition", sorted(DETECTED))
def test_noise_functions_check_every_positive_expectation(condition, monkeypatch):
    psi, ops = _perturbed_detected_case(condition, 1)
    real = witness_module._positive

    def checked(run):
        seen = []

        def spy(value, tolerance, what):
            seen.append((what, value))
            return real(value, tolerance, what)

        monkeypatch.setattr(witness_module, "_positive", spy)
        run()
        monkeypatch.setattr(witness_module, "_positive", real)
        return seen

    on_psi = checked(lambda: evaluate_condition(condition, psi, ops))
    assert len(on_psi) == {"bi1": 1, "bi2": 2, "tri-dagger": 3, "tri-product": 6}.get(condition, 7)
    assert checked(lambda: noise_margin_curve(psi, ops, condition, [0.2, 0.9])) == on_psi
    assert checked(lambda: noise_threshold(psi, ops, condition)) == on_psi


# --- expectation kernel -------------------------------------------------------


def test_block_expectation_matches_kron_layouts():
    # Block order: a block operator acts on its subsystems in the order the
    # block lists them, with identity on the other block.
    rng = np.random.default_rng(3)
    psi = random_pure_state(rng, (2, 2, 2))
    _, expect = _expectation(psi, ((1,), (0, 2)))
    full = np.kron(np.eye(2), np.kron(SM, np.eye(2)))
    want = np.vdot(psi.amplitudes, full @ psi.amplitudes)
    assert abs(expect([[SM, np.eye(4)]])[0] - want) <= 1e-14
    op = random_matrix(rng, 4, 4)
    dims = (2, 3, 2)
    # Element-wise: <i'j'k'|full|ijk> = op[(i',k'),(i,k)] * delta_{j'j}
    full = np.zeros((12, 12), dtype=complex)
    for bra in np.ndindex(*dims):
        for ket in np.ndindex(*dims):
            if bra[1] == ket[1]:
                row = (bra[0] * 3 + bra[1]) * 2 + bra[2]
                col = (ket[0] * 3 + ket[1]) * 2 + ket[2]
                full[row, col] = op[bra[0] * 2 + bra[2], ket[0] * 2 + ket[2]]
    for state in (random_pure_state(rng, dims), random_density_matrix(rng, dims)):
        rho = state.density_matrix().matrix if isinstance(state, PureState) else state.matrix
        _, expect = _expectation(state, ((0, 2), (1,)))
        assert abs(expect([[op, np.eye(3)]])[0] - np.trace(full @ rho)) <= 1e-13


@pytest.mark.parametrize("dims", [(2, 2), (2, 3, 4), (3, 2, 2, 3), (2, 2, 2, 2, 2)])
def test_expect_factors_matches_bruteforce_oracles(dims):
    def _expect_factors(state, factors):
        return _expectation(state)[1]([factors])[0]

    rng = np.random.default_rng(len(dims))
    factors = [random_matrix(rng, d, d) for d in dims]  # non-hermitian
    psi = random_pure_state(rng, dims)
    expected = product_expectation_bruteforce(psi.amplitudes, dims, factors)
    assert abs(_expect_factors(psi, factors) - expected) <= 1e-12
    rho = random_density_matrix(rng, dims)
    expected = product_expectation_density_bruteforce(rho.matrix, dims, factors)
    assert abs(_expect_factors(rho, factors) - expected) <= 1e-12


@pytest.mark.parametrize(
    "dims, blocks",
    [((2, 3, 2), None), ((3, 3, 3, 3), None),
     ((2, 3, 2), ((0, 2), (1,))), ((2, 2, 2, 2), ((1, 3), (0, 2)))],
)
def test_batched_kernel_shares_only_common_prefixes(dims, blocks):
    # Lists that share a factor object at the same position (with and
    # without a common prefix), the same object at different positions, and
    # equal-valued but distinct objects.  Each state is evaluated in turn
    # with the same factor objects, so nothing may carry over between calls.
    rng = np.random.default_rng(sum(dims))
    n = len(dims)
    parts = all_bipartitions(n)
    d = math.prod(dims)
    states = [
        random_pure_state(rng, dims),
        states_module.DensityMatrix._mixture(
            dims, [0.5, 0.3], [states_module.haar_random_state(d, rng) for _ in range(2)], 0.2),
        random_biseparable(dims, parts, len(parts) + 1, rng),
        random_density_matrix(rng, dims),
    ]
    r = d // 2 + 1  # more rows than D/d_n for any last factor
    states.append(states_module.DensityMatrix._mixture(
        dims, np.full(r, 0.9 / r), [states_module.haar_random_state(d, rng) for _ in range(r)], 0.1))
    parties = dims if blocks is None else [math.prod(dims[i] for i in b) for b in blocks]
    a = [random_matrix(rng, p, p) for p in parties]
    b = [random_matrix(rng, p, p) for p in parties]
    copies = [m.copy() for m in a]
    lists = [a, [*a[:-1], b[-1]], [b[0], *a[1:]], a, copies, [a[0], copies[1], *a[2:]], b]
    if parties[0] == parties[-1]:
        lists += [a[::-1], [a[-1], *a[1:-1], a[0]]]
    for state in states:
        _, expect = _expectation(state, blocks)
        batched = expect(lists)
        assert batched == [expect([f])[0] for f in lists]
        rho = state.density_matrix().matrix if isinstance(state, PureState) else state.matrix
        for factors, got in zip(lists, batched):
            if blocks is None:
                want = product_expectation_density_bruteforce(rho, dims, factors)
            else:
                want = block_expectation_bruteforce(rho, dims, *blocks, *factors)
            assert abs(got - want) <= 1e-12
    # Columns taken against a different left array: sum_j <l_j|F|c_j>.
    cols, left = random_matrix(rng, d, 3), random_matrix(rng, d, 3)
    expect = partial(_expect_rows, cols, parties, left=left)
    batched = expect(lists)
    assert batched == [expect([f])[0] for f in lists]
    for factors, got in zip(lists, batched):
        assert abs(got - np.vdot(left, reduce(np.kron, factors) @ cols)) <= 1e-12


# bi1/bi2 blocks per dims for the caller-matrix property below.
CALLER_BLOCKS = {(2, 2, 2): ((0, 2), (1,)), (2, 3, 2): ((0, 2), (1,)),
                 (3, 3, 3): ((0, 2), (1,)), (2, 2, 2, 2): ((1, 3), (0, 2))}


def _kron_expectation(state, blocks=None):
    """The caller-matrix reference: rho with its subsystems reindexed into
    block order, then one Kronecker product and trace per factor list."""
    dims, rho = state.dims, state.matrix
    if blocks is not None:
        perm = np.arange(rho.shape[0]).reshape(dims).transpose([*blocks[0], *blocks[1]]).ravel()
        rho = rho[np.ix_(perm, perm)]
        dims = tuple(math.prod(dims[i] for i in b) for b in blocks)
    return dims, lambda lists: [kron_trace(rho, factors) for factors in lists]


@given(st.sampled_from(sorted(CALLER_BLOCKS)), st.sampled_from([0.0, 3e-11]),
       st.integers(0, 2**32 - 1))
@example((2, 2, 2), 3e-11, 0)
@example((2, 2, 2, 2), 3e-11, 1)
@settings(max_examples=40, deadline=None)
def test_caller_matrix_reports_match_the_kronecker_trace(dims, skew, seed):
    # A complex density matrix plus skew times a traceless random matrix:
    # hermitian only to about skew, which the constructor accepts.  The
    # kernel takes rho's columns, rho^T as rows; rho's conjugate, equal to
    # rho^T only for an exactly hermitian rho, moves the lhs by about 1e-10.
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    g = random_matrix(rng, d, d)
    k = random_matrix(rng, d, d)
    k -= np.trace(k) / d * np.eye(d)
    rho = 0.5 * g @ g.conj().T / np.trace(g @ g.conj().T).real + 0.5 * np.eye(d) / d
    state = states_module.DensityMatrix(dims, rho + skew * k)
    for name in CONDITION_NAMES:
        arity = condition_arity(name)
        if arity not in (2, len(dims)):
            continue
        blocks = CALLER_BLOCKS[dims] if arity == 2 else None
        parties = dims if blocks is None else [math.prod(dims[i] for i in b) for b in blocks]
        ops = [random_matrix(rng, p, p) for p in parties]
        got = evaluate_condition(name, state, ops, blocks=blocks)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(witness_module, "_expectation", _kron_expectation)
            want = evaluate_condition(name, state, ops, blocks=blocks)
        assert [label for label, _ in got.rhs_terms] == [label for label, _ in want.rhs_terms]
        assert abs(got.lhs - want.lhs) <= 1e-12, name
        for (_, x), (_, y) in zip(got.rhs_terms, want.rhs_terms):
            assert abs(x - y) <= 1e-12, name
        assert got.violated == want.violated or abs(want.margin - want.tolerance) <= 1e-12

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmekit import (
    NumericalConsistencyError,
    ShapeError,
    ValidationError,
    all_bipartitions,
    bipartite_dagger,
    bipartite_product,
    evaluate_condition,
    ketbra,
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
from gmekit.witness import _expect_factors, _positive
from helpers import (
    random_density_matrix,
    random_hermitian,
    random_matrix,
    random_pure_state,
    random_rank_one,
)
from oracles import product_expectation_bruteforce, product_expectation_density_bruteforce

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


# --- expectation kernel -------------------------------------------------------


@pytest.mark.parametrize("dims", [(2, 2), (2, 3, 4), (3, 2, 2, 3), (2, 2, 2, 2, 2)])
def test_expect_factors_matches_bruteforce_oracles(dims):
    rng = np.random.default_rng(len(dims))
    factors = [random_matrix(rng, d, d) for d in dims]  # non-hermitian
    psi = random_pure_state(rng, dims)
    expected = product_expectation_bruteforce(psi.amplitudes, dims, factors)
    assert abs(_expect_factors(psi, factors) - expected) <= 1e-12
    rho = random_density_matrix(rng, dims)
    expected = product_expectation_density_bruteforce(rho.matrix, dims, factors)
    assert abs(_expect_factors(rho, factors) - expected) <= 1e-12

import numpy as np
import pytest

import gmekit
import gmekit.operators
from gmekit import (
    ValidationError,
    basis_vector,
    block_ops,
    block_sum,
    boson_annihilation,
    ketbra,
    kron_all,
    parse_operator_specs,
    qutrit_lower,
    qutrit_raise,
    sigma_minus,
)
from helpers import random_matrix

QUTRIT_DIMS = (3, 3, 3)


def adjoint(m):
    return m.conj().T


def test_public_names_resolve():
    for module in (gmekit, gmekit.operators):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing: {missing}"


def test_ketbra_values_and_errors():
    np.testing.assert_array_equal(ketbra(2, 0, 1), sigma_minus())
    np.testing.assert_array_equal(ketbra(2, 1, 0), adjoint(sigma_minus()))
    out = ketbra(3, 0, 2) @ basis_vector((3,), (2,))
    np.testing.assert_array_equal(out, basis_vector((3,), (0,)))
    with pytest.raises(IndexError):
        ketbra(2, 0, 2)
    with pytest.raises(IndexError):
        ketbra(2, -1, 0)


def test_qutrit_ladders():
    lower = qutrit_lower()
    np.testing.assert_array_equal(lower @ basis_vector((3,), (2,)), basis_vector((3,), (1,)))
    np.testing.assert_array_equal(qutrit_raise(), adjoint(lower))


def test_qutrit_composite_chain():
    # raising on a and b, lowering on c: |002> -> |111> -> |220>
    op = kron_all([adjoint(qutrit_lower()), qutrit_raise(), qutrit_lower()])
    np.testing.assert_array_equal(
        op @ basis_vector(QUTRIT_DIMS, (0, 0, 2)), basis_vector(QUTRIT_DIMS, (1, 1, 1))
    )
    np.testing.assert_array_equal(
        op @ basis_vector(QUTRIT_DIMS, (1, 1, 1)), basis_vector(QUTRIT_DIMS, (2, 2, 0))
    )


QUTRIT_MAP = {
    (0, 0, 1): (1, 1, 0),
    (0, 1, 1): (1, 2, 0),
    (1, 0, 1): (2, 1, 0),
    (0, 0, 2): (1, 1, 1),
    (0, 1, 2): (1, 2, 1),
    (1, 0, 2): (2, 1, 1),
    (1, 1, 1): (2, 2, 0),
    (1, 1, 2): (2, 2, 1),
}


def test_qutrit_composite_full_mapping_table():
    op = kron_all([adjoint(qutrit_lower()), qutrit_raise(), qutrit_lower()])
    mapped = dict(QUTRIT_MAP)
    for occ in np.ndindex(*QUTRIT_DIMS):
        out = op @ basis_vector(QUTRIT_DIMS, occ)
        if occ in mapped:
            np.testing.assert_array_equal(out, basis_vector(QUTRIT_DIMS, mapped[occ]))
        else:
            assert np.count_nonzero(out) == 0


def test_boson_annihilation():
    a = boson_annihilation(3)
    np.testing.assert_array_equal(a @ basis_vector((4,), (1,)), basis_vector((4,), (0,)))
    assert np.count_nonzero(a @ basis_vector((4,), (0,))) == 0
    number = adjoint(a) @ a
    np.testing.assert_allclose(np.diag(number), [0, 1, 2, 3], atol=1e-14)
    with pytest.raises(ValidationError):
        boson_annihilation(0)


def test_block_ops_values():
    op_a, op_b, op_c = block_ops(2, 0)
    np.testing.assert_array_equal(op_a, ketbra(3, 1, 2))
    np.testing.assert_array_equal(op_b, ketbra(3, 0, 1))
    np.testing.assert_array_equal(op_c, ketbra(3, 0, 1))


def test_block_ops_mapping():
    n_pump, n = 4, 2
    dims = (5, 5, 5)
    ops = block_ops(n_pump, n)
    composite = kron_all([adjoint(ops[0]), ops[1], ops[2]])  # A† B C
    src = basis_vector(dims, (n_pump - n - 1, n + 1, n + 1))
    dst = basis_vector(dims, (n_pump - n, n, n))
    np.testing.assert_array_equal(composite @ src, dst)


def test_block_ops_validation():
    with pytest.raises(ValidationError):
        block_ops(3, 0)  # odd pump number
    with pytest.raises(ValidationError):
        block_ops(4, 1)  # odd block index
    with pytest.raises(ValidationError):
        block_ops(4, 4)  # beyond N-2
    with pytest.raises(ValidationError):
        block_ops(0, 0)


def test_block_sum_entry_count():
    op_a, op_b, op_c = block_sum(4)
    assert np.count_nonzero(op_a) == 2
    assert np.count_nonzero(op_b) == 2
    assert np.count_nonzero(op_c) == 2


def test_compose_examples():
    dims = (2, 2, 2)
    sm = sigma_minus()
    # |0><1|, |1><0|, |0><1| with the first factor daggered gives |110><001|
    op = kron_all([adjoint(ketbra(2, 0, 1)), ketbra(2, 1, 0), ketbra(2, 0, 1)])
    expected = np.zeros((8, 8), dtype=complex)
    expected[6, 1] = 1.0
    np.testing.assert_array_equal(op, expected)
    np.testing.assert_array_equal(kron_all([np.eye(2)] * 3), np.eye(8))
    op2 = kron_all([adjoint(sm), sm, sm])
    np.testing.assert_array_equal(op2 @ basis_vector(dims, (0, 1, 1)),
                                  basis_vector(dims, (1, 0, 0)))
    assert np.count_nonzero(op2) == 1


def test_compose_rhs_projectors_for_qubit_choice():
    op_a, op_b, op_c = ketbra(2, 0, 1), ketbra(2, 1, 0), ketbra(2, 0, 1)
    dims = (2, 2, 2)
    ad, bd, cd = adjoint(op_a), adjoint(op_b), adjoint(op_c)
    cases = {
        (1, 1, 1): (ad @ op_a, op_b @ bd, cd @ op_c),
        (1, 0, 0): (ad @ op_a, bd @ op_b, op_c @ cd),
        (1, 0, 1): (ad @ op_a, bd @ op_b, cd @ op_c),
    }
    for occ, factors in cases.items():
        proj = np.outer(basis_vector(dims, occ), basis_vector(dims, occ).conj())
        np.testing.assert_array_equal(kron_all(factors), proj)


def test_compose_adjoint_consistency():
    rng = np.random.default_rng(11)
    dims = (2, 3, 2)
    factors = [random_matrix(rng, d, d) for d in dims]
    mask = (True, False, True)
    masked = [adjoint(f) if m else f for f, m in zip(factors, mask)]
    negated = [f if m else adjoint(f) for f, m in zip(factors, mask)]
    lhs = adjoint(kron_all(masked))
    assert np.max(np.abs(lhs - kron_all(negated))) <= 1e-14


def test_parse_operator_specs():
    ops = parse_operator_specs(
        ["sigma_minus", "ketbra 1 0", "qutrit_lower"], (2, 2, 3)
    )
    np.testing.assert_array_equal(ops[0], sigma_minus())
    np.testing.assert_array_equal(ops[1], ketbra(2, 1, 0))
    np.testing.assert_array_equal(ops[2], qutrit_lower())
    daggered = parse_operator_specs(["sigma_minus", "sigma_minus"], (2, 2), "d-")
    np.testing.assert_array_equal(daggered[0], adjoint(sigma_minus()))
    np.testing.assert_array_equal(daggered[1], sigma_minus())
    bos = parse_operator_specs(["boson_annihilate 3"], (4,))
    np.testing.assert_array_equal(bos[0], boson_annihilation(3))
    blocks = parse_operator_specs(["block_sum 2"] * 3, (3, 3, 3))
    for got, want in zip(blocks, block_sum(2)):
        np.testing.assert_array_equal(got, want)


def test_parse_operator_specs_errors():
    with pytest.raises(ValidationError):
        parse_operator_specs(["sigma_minus"], (3,))
    with pytest.raises(ValidationError):
        parse_operator_specs(["mystery"], (2,))
    with pytest.raises(ValidationError):
        parse_operator_specs(["sigma_minus"], (2, 2))
    with pytest.raises(ValidationError):
        parse_operator_specs(["sigma_minus", "sigma_minus"], (2, 2), "dd-")
    with pytest.raises(ValidationError):
        parse_operator_specs(["boson_annihilate 3"], (3,))
    with pytest.raises(ValidationError):
        parse_operator_specs(["block_sum 2"] * 4, (3, 3, 3, 3))

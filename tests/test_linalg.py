"""Generalized matrix norm and the companion-block factorization."""

import numpy as np
import pytest

from surfmod import (
    SingularMatrix,
    companion_block,
    generalized_norm,
    verify_factorization,
)
from surfmod.linalg import stacked_norm

from _oracles import minor_sum_norm, well_conditioned


def test_identity_norm_is_one():
    assert generalized_norm(np.eye(3)) == 1.0


def test_orthonormal_tall_columns():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert generalized_norm(a) == pytest.approx(1.0, abs=1e-15)


def test_single_column_is_euclidean_length():
    assert generalized_norm([[3.0], [4.0]]) == pytest.approx(5.0, rel=1e-15)


def test_single_row_is_euclidean_length():
    assert generalized_norm([[3.0, 4.0]]) == pytest.approx(5.0, rel=1e-15)


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-320])
def test_single_column_neither_overflows_nor_underflows(scale):
    # the squared entries leave the floating-point range
    assert generalized_norm([[0.0], [scale]]) == scale
    assert generalized_norm([[3.0 * scale, 4.0 * scale]]) == pytest.approx(5.0 * scale, rel=1e-15)


def test_single_columns_in_range_keep_the_plain_norm():
    rng = np.random.default_rng(1)
    cols = rng.normal(size=(200, 4, 1)) * 10.0 ** rng.uniform(-140, 140, (200, 1, 1))
    cols[0] = 0.0
    norms = stacked_norm(cols)
    np.testing.assert_array_equal(norms, np.linalg.norm(cols[..., 0], axis=-1))
    assert norms[0] == 0.0
    assert np.isinf(stacked_norm(np.array([[[np.inf], [1.0]]]))[0])


@pytest.mark.parametrize(
    "diagonal, expected",
    [([1e200, 1e200, 1e-300], 1e100), ([1e-200, 1e-200, 1e300], 1e-100)],
)
def test_several_columns_neither_overflow_nor_underflow(diagonal, expected):
    # the partial product of the first two diagonal entries leaves the range
    assert generalized_norm(np.diag(diagonal)) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_several_columns_in_range_keep_the_plain_product():
    rng = np.random.default_rng(2)
    stack = rng.normal(size=(500, 4, 3)) * 10.0 ** rng.uniform(-30, 30, (500, 1, 3))
    r = np.linalg.qr(stack, mode="r")
    plain = np.abs(np.prod(np.diagonal(r, axis1=-2, axis2=-1), axis=-1))
    np.testing.assert_array_equal(stacked_norm(stack), plain)
    assert stacked_norm(np.zeros((1, 3, 2)))[0] == 0.0


def test_square_matches_absolute_determinant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        assert generalized_norm(a) == pytest.approx(abs(np.linalg.det(a)), rel=1e-10)


def test_diagonal_norm():
    assert generalized_norm(np.diag([2.0, 3.0])) == pytest.approx(6.0, rel=1e-15)


def test_rank_deficient_is_zero():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    assert generalized_norm(a) == pytest.approx(0.0, abs=1e-12)


def test_norm_matches_minor_enumeration():
    # QR route against the definition as a sum over maximal minors.
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        a = rng.normal(size=(n, m))
        assert generalized_norm(a) == pytest.approx(
            minor_sum_norm(a), rel=1e-10, abs=1e-12
        )


def test_orthogonal_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.normal(size=(5, 3))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        assert generalized_norm(q @ a) == pytest.approx(generalized_norm(a), rel=1e-10)


def test_norm_input_validation():
    with pytest.raises(ValueError):
        generalized_norm(np.zeros(3))
    with pytest.raises(ValueError):
        generalized_norm(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        generalized_norm(np.zeros((0, 3)))


def test_companion_of_diagonal():
    b = companion_block(np.diag([2.0, 3.0, 5.0]), m=1)
    np.testing.assert_allclose(b, [[0.5, 0.0, 0.0], [0.0, 1.0 / 3.0, 0.0]])


def test_companion_annihilates_trailing_columns():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        a = well_conditioned(rng, n)
        b = companion_block(a, m)
        assert b.shape == (n - m, n)
        product = b @ a
        np.testing.assert_allclose(product[:, : n - m], np.eye(n - m), atol=1e-12)
        np.testing.assert_allclose(product[:, n - m :], 0.0, atol=1e-12)


def test_factorization_diagonal_example():
    lhs, rhs = verify_factorization(np.diag([2.0, 3.0, 5.0]), m=1)
    assert lhs == pytest.approx(5.0, rel=1e-14)
    assert rhs == pytest.approx(5.0, rel=1e-12)


def test_factorization_planar_case():
    # For n=2, m=1 both sides reduce to the length of the second column.
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = well_conditioned(rng, 2)
        lhs, rhs = verify_factorization(a, m=1)
        expected = float(np.hypot(a[0, 1], a[1, 1]))
        assert lhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(expected, rel=1e-10)


def test_factorization_random_property():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        a = well_conditioned(rng, n)
        lhs, rhs = verify_factorization(a, m)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrix):
        companion_block(np.array([[1.0, 2.0], [2.0, 4.0]]), 1)
    with pytest.raises(SingularMatrix):
        companion_block(np.diag([1.0, 1e-15]), 1)


def test_companion_input_validation():
    with pytest.raises(ValueError):
        companion_block(np.eye(3), 0)
    with pytest.raises(ValueError):
        companion_block(np.eye(3), 3)
    with pytest.raises(ValueError):
        companion_block(np.zeros((2, 3)), 1)

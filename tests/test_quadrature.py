"""Tensor-product quadrature rules."""

import numpy as np
import pytest

from surfmod import BoxDomain, QuadratureScheme


def test_parameter_validation():
    with pytest.raises(ValueError):
        QuadratureScheme(order=0)
    with pytest.raises(ValueError):
        QuadratureScheme(subdivisions=0)
    # sizes must be integers: a float or a bool is refused at construction
    for bad in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError):
            QuadratureScheme(order=bad)
        with pytest.raises(ValueError):
            QuadratureScheme(subdivisions=bad)
    quad = QuadratureScheme(order=np.int64(3), subdivisions=np.int32(2))
    nodes, weights = quad.axis_rule(0.0, 1.0)
    assert nodes.shape == weights.shape == (6,)


def test_weights_positive_and_sum_to_length():
    quad = QuadratureScheme(order=7, subdivisions=3)
    nodes, weights = quad.axis_rule(-1.0, 2.5)
    assert np.all(weights > 0.0)
    assert np.all((nodes > -1.0) & (nodes < 2.5))
    assert weights.sum() == pytest.approx(3.5, rel=1e-14)


def test_axis_rule_rejects_empty_interval():
    with pytest.raises(ValueError):
        QuadratureScheme().axis_rule(1.0, 1.0)


def test_gauss_exactness_to_design_degree():
    # order-n Gauss integrates polynomials up to degree 2n-1 exactly
    quad = QuadratureScheme(order=3, subdivisions=2)
    nodes, weights = quad.axis_rule(0.0, 1.0)
    for degree in range(6):
        assert weights @ nodes**degree == pytest.approx(
            1.0 / (degree + 1), rel=1e-13
        )


def test_gauss_not_exact_past_design_degree():
    quad = QuadratureScheme(order=2, subdivisions=1)
    nodes, weights = quad.axis_rule(0.0, 1.0)
    assert abs(weights @ nodes**4 - 0.2) > 1e-4


def test_midpoint_rule():
    # order 1 is the composite midpoint rule
    quad = QuadratureScheme(order=1, subdivisions=4)
    nodes, weights = quad.axis_rule(0.0, 1.0)
    np.testing.assert_allclose(nodes, [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_allclose(weights, 0.25)


def test_box_rule_tensor_structure():
    quad = QuadratureScheme(order=4, subdivisions=2)
    box = BoxDomain([0.0, 1.0], [1.0, 3.0])
    nodes, weights = quad.box_rule(box)
    assert nodes.shape == (64, 2)
    assert weights.shape == (64,)
    assert weights.sum() == pytest.approx(box.volume, rel=1e-13)
    # separable integrand: product of 1-d integrals
    value = weights @ (nodes[:, 0] ** 2 * nodes[:, 1])
    assert value == pytest.approx((1.0 / 3.0) * 4.0, rel=1e-13)


def test_box_rule_convergence_of_midpoint():
    box = BoxDomain([0.0], [1.0])
    coarse = QuadratureScheme(order=1, subdivisions=8)
    fine = QuadratureScheme(order=1, subdivisions=64)

    def err(quad):
        nodes, weights = quad.box_rule(box)
        return abs(weights @ np.exp(nodes[:, 0]) - (np.e - 1.0))

    # second-order rule: 8x the resolution is ~64x the accuracy
    assert err(fine) < err(coarse) / 30.0

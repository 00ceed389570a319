"""Family containers, Jacobian blocks, and the area-factor identity."""

import numpy as np
import pytest

from surfmod import (
    AmbientMap,
    BoxDomain,
    EvaluationFailure,
    ParametrizedFamily,
    Submersion,
    compose,
    evaluate_map,
    jacobian_full,
    jacobian_partial_y,
    submersion_jacobian,
)
from surfmod.family import key_relation_residual

from _oracles import well_conditioned


def polar_family(with_jacobian=True):
    """Radial segments of an annulus sector, parametrized by angle."""

    def mapping(x, y):
        return np.stack([y[..., 0] * np.cos(x[..., 0]), y[..., 0] * np.sin(x[..., 0])], -1)

    def jacobian(x, y):
        c, s, r = np.cos(x[..., 0]), np.sin(x[..., 0]), y[..., 0]
        return np.stack([np.stack([-r * s, c], -1), np.stack([r * c, s], -1)], -2)

    return ParametrizedFamily(
        n=2,
        m=1,
        param_box=BoxDomain([0.1], [1.3]),
        surface_box=BoxDomain([1.0], [2.0]),
        map=mapping,
        jacobian=jacobian if with_jacobian else None,
    )


def test_box_validation():
    with pytest.raises(ValueError):
        BoxDomain([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        BoxDomain([1.0], [0.0])
    # an empty interval, on which no quadrature rule is built
    with pytest.raises(ValueError):
        BoxDomain([1.0], [1.0])
    with pytest.raises(ValueError):
        BoxDomain([0.0], [np.inf])


def test_box_geometry():
    box = BoxDomain([0.0, -1.0], [2.0, 1.0])
    assert box.dim == 2
    assert box.volume == pytest.approx(4.0)
    np.testing.assert_allclose(box.widths, [2.0, 2.0])


def test_box_grid_midpoints():
    box = BoxDomain([0.0], [1.0])
    np.testing.assert_allclose(box.grid(4).ravel(), [0.125, 0.375, 0.625, 0.875])
    grid = BoxDomain([0.0, 0.0], [1.0, 2.0]).grid(3)
    assert grid.shape == (9, 2)


def test_box_grid_inset_stays_inside_the_half_width():
    box = BoxDomain([0.0], [1.0])
    np.testing.assert_allclose(box.grid(2, inset=0.25).ravel(), [0.375, 0.625])
    # 0.5 collapses the grid onto the center, 0.7 reverses it, a negative
    # inset leaves the box and NaN poisons every point
    for bad in (0.5, 0.7, 1.0, -0.01, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"inset must lie in \[0, 0.5\)"):
            box.grid(3, inset=bad)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_box_grid_matches_a_meshgrid_reference(dim):
    box = BoxDomain(np.linspace(-1.0, 0.5, dim), np.linspace(0.3, 2.0, dim) ** 2)
    for per_axis, inset in ((1, 0.0), (3, 0.0), (4, 0.1), (5, 0.37)):
        lo = box.lower + inset * box.widths
        hi = box.upper - inset * box.widths
        axes = [lo[i] + (hi[i] - lo[i]) * (np.arange(per_axis) + 0.5) / per_axis for i in range(dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        reference = np.stack([g.ravel() for g in mesh], axis=-1)
        grid = box.grid(per_axis, inset=inset)
        assert grid.shape == reference.shape == (per_axis**dim, dim)
        np.testing.assert_array_equal(grid, reference)


def test_family_dimension_validation():
    box1 = BoxDomain([0.0], [1.0])
    with pytest.raises(ValueError):
        ParametrizedFamily(n=2, m=2, param_box=box1, surface_box=box1, map=None)
    with pytest.raises(ValueError):
        ParametrizedFamily(
            n=3, m=1, param_box=box1, surface_box=box1, map=lambda x, y: None
        )
    with pytest.raises(ValueError):
        Submersion(n=2, k=2, map=None)


def test_evaluate_map_checks_shape_and_finiteness():
    fam = polar_family()
    z = evaluate_map(fam, [0.5], [1.5])
    np.testing.assert_allclose(z, [1.5 * np.cos(0.5), 1.5 * np.sin(0.5)])

    bad_shape = ParametrizedFamily(
        n=2,
        m=1,
        param_box=fam.param_box,
        surface_box=fam.surface_box,
        map=lambda x, y: np.zeros(x.shape[:-1] + (3,)),
    )
    with pytest.raises(EvaluationFailure, match="shape"):
        evaluate_map(bad_shape, [0.5], [1.5])

    not_finite = ParametrizedFamily(
        n=2,
        m=1,
        param_box=fam.param_box,
        surface_box=fam.surface_box,
        map=lambda x, y: np.full(x.shape[:-1] + (2,), np.nan),
    )
    with pytest.raises(EvaluationFailure, match="non-finite"):
        evaluate_map(not_finite, [0.5], [1.5])


def test_polar_jacobian_blocks():
    fam = polar_family()
    x, y = np.array([0.7]), np.array([1.4])
    full = jacobian_full(fam, x, y)
    np.testing.assert_allclose(full[:, 1:], jacobian_partial_y(fam, x, y))
    # det of the polar map is the radius
    assert abs(np.linalg.det(full)) == pytest.approx(1.4, rel=1e-12)


def test_finite_differences_match_analytic():
    with_jac = polar_family(True)
    without = polar_family(False)
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.uniform(0.1, 1.3, size=1)
        y = rng.uniform(1.0, 2.0, size=1)
        np.testing.assert_allclose(
            jacobian_full(without, x, y),
            jacobian_full(with_jac, x, y),
            rtol=1e-6,
            atol=1e-8,
        )


def test_finite_differences_at_the_boundary():
    # the stencil center is inset by the step size at a corner, so the
    # result differs from the corner Jacobian by O(h) only
    fam = polar_family(False)
    jac = jacobian_full(fam, [0.1], [1.0])
    np.testing.assert_allclose(
        jac, jacobian_full(polar_family(True), [0.1], [1.0]), atol=1e-4
    )


def test_shear_jacobian_is_constant():
    fam = ParametrizedFamily(
        n=2,
        m=1,
        param_box=BoxDomain([0.0], [1.0]),
        surface_box=BoxDomain([0.0], [1.0]),
        map=lambda x, y: np.concatenate([x + y, y], -1),
    )
    for point in ([0.2], [0.9]):
        np.testing.assert_allclose(
            jacobian_full(fam, point, [0.5]), [[1.0, 1.0], [0.0, 1.0]], atol=1e-8
        )


def test_submersion_jacobian_analytic_and_fd():
    sub = Submersion(
        n=2,
        k=1,
        map=lambda z: np.hypot(z[..., 0], z[..., 1])[..., None],
        jacobian=lambda z: (z / np.hypot(z[..., 0], z[..., 1])[..., None])[..., None, :],
    )
    z = np.array([0.6, 0.8])
    np.testing.assert_allclose(submersion_jacobian(sub, z), [[0.6, 0.8]], rtol=1e-12)
    bare = Submersion(n=2, k=1, map=sub.map)
    np.testing.assert_allclose(submersion_jacobian(bare, z), [[0.6, 0.8]], rtol=1e-7)


def test_key_relation_for_polar_pair():
    fam = polar_family()

    def angle_jacobian(z):
        gradient = np.stack([-z[..., 1], z[..., 0]], -1) / (z**2).sum(-1, keepdims=True)
        return gradient[..., None, :]

    sub = Submersion(
        n=2,
        k=1,
        map=lambda z: np.arctan2(z[..., 1], z[..., 0])[..., None],
        jacobian=angle_jacobian,
    )
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.uniform(0.1, 1.3, size=1)
        y = rng.uniform(1.0, 2.0, size=1)
        assert key_relation_residual(fam, sub, x, y) < 1e-12


def test_key_relation_for_random_linear_families():
    """A linear map A(x, y) paired with the matching row block of its inverse.

    The level sets of z -> (first n-m rows of A^{-1}) z are exactly the
    affine surfaces swept by the map, so the residual must vanish.
    """
    rng = np.random.default_rng(9)
    box = BoxDomain([0.0], [1.0])
    box2 = BoxDomain([0.0, 0.0], [1.0, 1.0])
    for _ in range(50):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, n))
        a = well_conditioned(rng, n)
        fam = ParametrizedFamily(
            n=n,
            m=m,
            param_box=box if n - m == 1 else box2,
            surface_box=box if m == 1 else box2,
            map=lambda x, y, a=a: np.concatenate([x, y], -1) @ a.T,
            jacobian=lambda x, y, a=a: np.broadcast_to(a, x.shape[:-1] + a.shape),
        )
        b = np.linalg.inv(a)[: n - m]
        sub = Submersion(
            n=n,
            k=n - m,
            map=lambda z, b=b: z @ b.T,
            jacobian=lambda z, b=b: np.broadcast_to(b, z.shape[:-1] + b.shape),
        )
        x = rng.uniform(0.1, 0.9, size=n - m)
        y = rng.uniform(0.1, 0.9, size=m)
        assert key_relation_residual(fam, sub, x, y) < 1e-10


def test_key_relation_dimension_mismatch():
    fam = polar_family()
    sub = Submersion(n=3, k=1, map=lambda z: z[..., :1])
    with pytest.raises(ValueError):
        key_relation_residual(fam, sub, [0.5], [1.5])


def test_compose_chain_rule():
    fam = polar_family()

    def bend_jacobian(z):
        jac = np.broadcast_to(np.eye(2), z.shape[:-1] + (2, 2)).copy()
        jac[..., 0, 1] = 0.2 * z[..., 1]
        return jac

    outer = AmbientMap(
        n=2,
        map=lambda z: np.stack([z[..., 0] + 0.1 * z[..., 1] ** 2, z[..., 1]], -1),
        jacobian=bend_jacobian,
    )
    image = compose(fam, outer)
    assert image.jacobian is not None
    rng = np.random.default_rng(6)
    for _ in range(25):
        x = rng.uniform(0.15, 1.25, size=1)
        y = rng.uniform(1.05, 1.95, size=1)
        analytic = jacobian_full(image, x, y)
        bare = ParametrizedFamily(
            n=2,
            m=1,
            param_box=fam.param_box,
            surface_box=fam.surface_box,
            map=image.map,
        )
        np.testing.assert_allclose(analytic, jacobian_full(bare, x, y), rtol=1e-6, atol=1e-8)


def test_compose_without_jacobian_falls_back():
    fam = polar_family(False)
    outer = AmbientMap(n=2, map=lambda z: 2.0 * z)
    image = compose(fam, outer)
    assert image.jacobian is None
    np.testing.assert_allclose(
        jacobian_full(image, [0.5], [1.5]),
        2.0 * jacobian_full(polar_family(True), [0.5], [1.5]),
        rtol=1e-6,
    )


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(polar_family(), AmbientMap(n=3, map=lambda z: z))

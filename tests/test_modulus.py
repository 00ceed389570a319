"""Surface weights, moduli, extremal densities, and both verification routes."""

import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfmod import (
    BoxDomain,
    DegenerateJacobian,
    EvaluationFailure,
    InconsistentSubmersion,
    InversionFailure,
    ModulusReport,
    NonFiniteIntegrand,
    ParametrizedFamily,
    QuadratureScheme,
    Submersion,
    admissibility_check,
    build_entry,
    coarea_check,
    conjugate_exponent,
    evaluate_map,
    extremal_density,
    extremality_probe,
    jacobian_floor,
    make_parallel,
    make_polar_annulus,
    make_shear,
    modulus_p,
    standard_entries,
    submersion_modulus,
)
from surfmod import family as family_module
from surfmod import modulus as modulus_module
from surfmod.family import key_relation_residual, node_fields

QUAD = QuadratureScheme(order=10, subdivisions=3)


def constant_jacobian_family(matrix):
    """The linear family of an n x n matrix on unit boxes, with m = 1."""
    matrix = np.asarray(matrix, dtype=float)
    n = len(matrix)
    return ParametrizedFamily(
        n=n,
        m=1,
        param_box=BoxDomain([0.0] * (n - 1), [1.0] * (n - 1)),
        surface_box=BoxDomain([0.0], [1.0]),
        map=lambda x, y: np.concatenate([x, y], -1) @ matrix.T,
        jacobian=lambda x, y: np.broadcast_to(matrix, x.shape[:-1] + matrix.shape),
    )


def test_conjugate_exponent_values():
    assert conjugate_exponent(2.0) == pytest.approx(2.0)
    assert conjugate_exponent(3.0) == pytest.approx(1.5)
    for p in np.geomspace(1.01, 10.0, 50):
        q = conjugate_exponent(p)
        assert abs(1.0 / p + 1.0 / q - 1.0) < 1e-12


def test_conjugate_exponent_rejects_bad_p():
    for p in (1.0, 0.9, -2.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            conjugate_exponent(p)


def test_surface_weight_parallel():
    # flat surfaces: the weight is the surface volume, for every p
    fam = make_parallel([(0.0, 2.0)], [(0.0, 3.0)]).family
    for p in (1.5, 2.0, 3.0):
        density = extremal_density(fam, p, QUAD)
        assert density.l_value([0.7]) == pytest.approx(3.0, rel=1e-13)


def test_surface_weight_radial():
    # radial segments of the annulus 1 < |z| < 2 at p=2: weight log 2
    fam = make_polar_annulus(1.0, 2.0, mode="radial").family
    density = extremal_density(fam, 2.0, QUAD)
    assert density.l_value([1.2]) == pytest.approx(np.log(2.0), rel=1e-12)


def test_surface_weight_circles():
    # concentric circles at p=2: weight is the circumference
    fam = make_polar_annulus(1.0, 2.0, mode="circular").family
    density = extremal_density(fam, 2.0, QUAD)
    for t in (1.1, 1.5, 1.9):
        assert density.l_value([t]) == pytest.approx(
            2.0 * np.pi * t, rel=1e-12
        )


def test_modulus_parallel_box():
    report = modulus_p(make_parallel([(0.0, 2.0)], [(0.0, 3.0)]).family, 2.0, QUAD)
    assert report.modulus == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert report.p == 2.0 and report.q == 2.0
    assert report.min_jacobian == pytest.approx(1.0)
    assert len(report.l_samples) == 30
    assert report.node_count == 30 * 30


def test_modulus_radial_annulus():
    fam = make_polar_annulus(1.0, float(np.e), mode="radial").family
    report = modulus_p(fam, 2.0, QUAD)
    assert report.modulus == pytest.approx(2.0 * np.pi, rel=1e-10)


def test_modulus_shear():
    fam = make_shear([(0.0, 1.0)], [(0.0, 1.0)], [[1.0]]).family
    report = modulus_p(fam, 2.0, QUAD)
    assert report.modulus == pytest.approx(0.5, rel=1e-13)


def test_modulus_rejects_p_one():
    fam = make_parallel([(0.0, 1.0)], [(0.0, 1.0)]).family
    with pytest.raises(ValueError):
        modulus_p(fam, 1.0, QUAD)


def test_report_validates_conjugacy():
    with pytest.raises(ValueError):
        ModulusReport(
            p=2.0, q=3.0, modulus=1.0, l_samples=((0.5,), 1.0),
            min_jacobian=1.0, node_count=1,
        )
    with pytest.raises(ValueError):
        ModulusReport(
            p=2.0, q=2.0, modulus=1.0, l_samples=(((0.5,), -1.0),),
            min_jacobian=1.0, node_count=1,
        )


def test_degenerate_jacobian_detected():
    density = extremal_density(constant_jacobian_family([[1.0, 1.0], [1.0, 1.0]]), 2.0, QUAD)
    with pytest.raises(DegenerateJacobian):
        density.l_value([0.5])


def test_non_finite_integrand_detected():
    # l = area^q det^(1-q) = 1e320 overflows, not only the ratio
    # (area/det)^q, while det stays above the floor
    density = extremal_density(constant_jacobian_family([[1e-300, 0.0], [0.0, 1e20]]), 2.0, QUAD)
    with pytest.raises(NonFiniteIntegrand):
        density.l_value([0.5])


def test_underflowing_weight_detected():
    fam = constant_jacobian_family([[1.0, 0.0], [0.0, 1e-301]])
    with pytest.raises(NonFiniteIntegrand):
        modulus_p(fam, 2.0, QUAD)


@pytest.mark.parametrize(
    "sx, sy, p, expected",
    [
        # area factor and |det J| both equal sy, so l = sy and the modulus
        # at p = 2 is 1 / sy; squaring the column over- or underflows
        (1.0, 1e160, 2.0, 1e-160),
        (1.0, 1e-160, 2.0, 1e160),
        # q = 4.5: (A/J)^q = 1e450 and the level-set weight's
        # G^(q-1) = 1e350 overflow, while l = 1e200 and the modulus
        # l^(-2/7) do not
        (1e-100, 1e-150, 9 / 7, 7.196856730011417e-58),
    ],
    ids=["1e+160", "1e-160", "1e-100,1e-150"],
)
def test_extreme_single_column_area_factors(sx, sy, p, expected):
    # diag(sx, sy) with the submersion z -> z_0 / sx, on both routes
    fam = constant_jacobian_family(np.diag([sx, sy]))
    row = np.array([[1.0 / sx, 0.0]])
    sub = Submersion(
        n=2, k=1, map=lambda z: z @ row.T, jacobian=lambda z: np.broadcast_to(row, z.shape[:-1] + (1, 2))
    )
    quad = QuadratureScheme(4, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for report in (modulus_p(fam, p, quad), submersion_modulus(sub, fam, p, quad)):
            assert report.modulus == pytest.approx(expected, rel=1e-12)


def test_modulus_of_a_tiny_box_beyond_the_largest_float_power():
    # l = vol(V) = 1e-200, so l^(1-p) = 1e400 overflows at p = 3, while
    # the modulus vol(U) * l^(1-p) = 1e100 does not
    entry = make_parallel([(0.0, 1e-300)], [(0.0, 1e-200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for report in (
            modulus_p(entry.family, 3.0, QUAD),
            submersion_modulus(entry.submersion, entry.family, 3.0, QUAD),
        ):
            assert report.modulus == pytest.approx(1e100, rel=1e-12)
        assert entry.expected_modulus(3.0) == pytest.approx(1e100, rel=1e-12)


@pytest.mark.parametrize(
    "fam",
    [
        make_parallel([(0.0, 1e-300)], [(0.0, 1e-200)]).family,
        make_parallel([(0.0, 1e-200)], [(0.0, 1e-200)]).family,
        replace(constant_jacobian_family(np.diag([1.0, 1e-200])), param_box=BoxDomain([0.0], [1e-200])),
    ],
    ids=["parallel-1e-300", "parallel-1e-200", "diag-1e-200"],
)
def test_extremality_probe_on_a_tiny_box_beyond_the_largest_float_power(fam):
    # a competitor's rho^p is about 1e600 and the product of a node's two
    # weights 1e-504 or 1e-404 (for the parallel boxes), or of its |det J|
    # and x weight 1e-400 (for diag(1, 1e-200)), while its energy, near the
    # modulus, is representable; the gap is the unit box's, scaled by the
    # modulus
    unit = make_parallel([(0.0, 1.0)], [(0.0, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gap = extremality_probe(fam, 3.0, QUAD, trials=5)
    assert np.isfinite(gap) and gap >= 0.0
    expected = extremality_probe(unit.family, 3.0, QUAD, trials=5)
    assert gap / modulus_p(fam, 3.0, QUAD).modulus == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("sx", [1e250, 1e-250])
def test_representable_weight_survives_an_out_of_range_ratio(sx):
    # condenser diag(sx, 1) at p = 3: area 1 and |det J| = sx, so
    # (area/det)^q = sx^-1.5 under- or overflows while l = sx^-0.5 and
    # the modulus |sx| are representable
    fam = build_entry("condenser", {"sx": sx, "sy": 1.0}).family
    assert modulus_p(fam, 3.0, QUAD).modulus == pytest.approx(sx, rel=1e-12)


def test_subnormal_weight_power_keeps_its_digits():
    # condenser diag(1e160, 1) at p = 2: (area/det)^2 = 1e-320 is subnormal,
    # which read 1.0000111e160 for the modulus where the closed form is 1e160
    fam = build_entry("condenser", {"sx": 1e160, "sy": 1.0}).family
    assert modulus_p(fam, 2.0, QuadratureScheme(4, 1)).modulus == pytest.approx(1e160, rel=1e-13)


def test_density_survives_an_underflowing_power():
    # condenser diag(1e200, 1e100) at p = 1.5: (area/det)^(q-1) = 1e-400
    # underflows to 0, while l = 1e-300 and the density 1e-100 do not
    fam = build_entry("condenser", {"sx": 1e200, "sy": 1e100}).family
    quad = QuadratureScheme(4, 1)
    density = extremal_density(fam, 1.5, quad)
    assert density.evaluate_param([0.5], [0.5]) == pytest.approx(1e-100, rel=1e-12)
    # every unit surface meets the extremal density with integral one
    for _, integral in admissibility_check(fam, density, quad, fam.param_box.grid(3)):
        assert integral == pytest.approx(1.0, rel=1e-12)


def test_density_keeps_the_digits_of_a_subnormal_ratio():
    # diag(1e160, 1e160, 1e-20) at p = 3: A/J = 1e-320 is subnormal while
    # its power (A/J)^(q-1) = 1e-160 is normal; with l = 1e-180 the
    # density is 1e20, which read 9.99994e19 from the subnormal ratio
    fam = constant_jacobian_family(np.diag([1e160, 1e160, 1e-20]))
    density = extremal_density(fam, 3.0, QuadratureScheme(3, 1))
    assert density.evaluate_param([0.5, 0.5], [0.5]) == pytest.approx(1e20, rel=1e-12)


@pytest.mark.parametrize("sx, sy", [(1e160, 1.0), (1e200, 1e100)])
def test_inversion_of_images_beyond_the_square_root_of_the_largest_float(sx, sy):
    # squared seed distances and the squared diameter overflowed to inf, so
    # the tolerance was inf and the first seed came back as the inverse
    fam = build_entry("condenser", {"sx": sx, "sy": sy}).family
    density = extremal_density(fam, 2.0, QuadratureScheme(4, 1))
    z = evaluate_map(fam, np.array([0.3]), np.array([0.7]))
    x, y = density._invert(z)
    np.testing.assert_allclose(np.concatenate([x, y]), [0.3, 0.7], rtol=1e-12)


@pytest.mark.parametrize(
    "sx, sy, p, message",
    [
        (1e250, 1.0, 1.5, "surface weight l"),  # l = 1e-500 underflows
        (1.0, 1e-250, 3.0, "modulus integral"),  # l = 1e-250, but the modulus is 1e500
    ],
)
def test_weight_or_modulus_out_of_range_still_raises(sx, sy, p, message):
    fam = build_entry("condenser", {"sx": sx, "sy": sy}).family
    with pytest.raises(NonFiniteIntegrand, match=message):
        modulus_p(fam, p, QUAD)


def test_non_finite_weight_names_the_first_bad_node():
    # A / |det J| = 1 / s, whose square overflows where s = 1e-160: at the
    # nodes with x > 1/2 and y > 1, while |det J| = 1e-10 at every node.
    def jacobian(x, y):
        far = (x[..., :1] > 0.5) & (y[..., :1] > 1.0)
        return np.where(far, [1e-160, 1e150], [1.0, 1e-10])[..., None] * np.eye(2)

    fam = ParametrizedFamily(
        n=2,
        m=1,
        param_box=BoxDomain([0.0], [1.0]),
        surface_box=BoxDomain([0.0], [2.0]),
        map=lambda x, y: np.concatenate([x, y], -1),
        jacobian=jacobian,
    )
    x_nodes, _ = QUAD.box_rule(fam.param_box)
    y_nodes, _ = QUAD.box_rule(fam.surface_box)
    x, y = x_nodes[x_nodes[:, 0] > 0.5][0], y_nodes[y_nodes[:, 0] > 1.0][0]
    with pytest.raises(NonFiniteIntegrand) as raised:
        modulus_p(fam, 2.0, QUAD)
    assert str(raised.value) == f"surface-weight integrand is non-finite at x={x}, y={y}"


def test_jacobian_floor_scales_with_family():
    fam = make_polar_annulus(1.0, 2.0, mode="radial").family
    floor = jacobian_floor(fam)
    assert 0.0 < floor < 1e-10


def _whole_grid_routes(entry, quad):
    """The reports of the whole-grid routes on a catalog entry, and the probe's gap."""
    fam = entry.family
    reports = [modulus_p(fam, 2.5, quad), extremality_probe(fam, 2.5, quad, trials=3)]
    if entry.submersion is not None:
        reports.append(submersion_modulus(entry.submersion, fam, 2.5, quad))
    return reports


def test_whole_grid_routes_take_no_probe_floor(monkeypatch):
    quad = QuadratureScheme(order=6, subdivisions=2)
    entries = standard_entries(include_condenser=True)
    before = [_whole_grid_routes(entry, quad) for entry in entries]

    def refuse(fam):
        raise AssertionError("jacobian_floor called")

    monkeypatch.setattr(modulus_module, "jacobian_floor", refuse)
    assert [_whole_grid_routes(entry, quad) for entry in entries] == before
    # the extremal density evaluates single points: it keeps the probe floor
    with pytest.raises(AssertionError, match="jacobian_floor called"):
        extremal_density(entries[0].family, 2.5, quad)


def _cusp_family(x_star):
    """(x, y) -> ((x - x*)^3 / 3, x + y) on (0, 1) x (0, 2): |det J| is
    (x - x*)^2, zero on the surface x = x*, and the area factor is 1."""

    def jacobian(x, y):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = (x[..., 0] - x_star) ** 2
        out[..., 1, :] = 1.0
        return out

    return ParametrizedFamily(
        n=2,
        m=1,
        param_box=BoxDomain([0.0], [1.0]),
        surface_box=BoxDomain([0.0], [2.0]),
        map=lambda x, y: np.concatenate([(x - x_star) ** 3 / 3.0, x + y], -1),
        jacobian=jacobian,
    )


def test_whole_grid_routes_name_the_first_degenerate_node(monkeypatch):
    x_nodes, _ = QUAD.box_rule(BoxDomain([0.0], [1.0]))
    y_nodes, _ = QUAD.box_rule(BoxDomain([0.0], [2.0]))
    fam = _cusp_family(float(x_nodes[7, 0]))
    # the floor from the grid's |det J|, by numpy's own det and median
    x, y = np.broadcast_arrays(x_nodes[:, None], y_nodes[None])
    dets = np.abs(np.linalg.det(fam.jacobian(x, y)))
    floor = 1e-12 * np.median(dets)
    expected = (
        f"|det J| = {0.0:.3e} at x={x_nodes[7]}, y={y_nodes[0]} is below the degeneracy "
        f"floor {floor:.3e}"
    )
    # z -> z_0 has the family's level sets but not its parameter: the
    # floor is checked before the key relation
    gradient = np.array([[1.0, 0.0]])
    sub = Submersion(
        n=2, k=1, map=lambda z: z[..., :1], jacobian=lambda z: np.broadcast_to(gradient, z.shape[:-1] + (1, 2))
    )
    routes = (
        lambda: modulus_p(fam, 2.0, QUAD),
        lambda: submersion_modulus(sub, fam, 2.0, QUAD),
        lambda: extremality_probe(fam, 2.0, QUAD, trials=2),
    )
    for chunk in (family_module._CHUNK, 100):
        monkeypatch.setattr(family_module, "_CHUNK", chunk)
        for route in routes:
            with pytest.raises(DegenerateJacobian) as raised:
                route()
            assert str(raised.value) == expected
    # the density route takes its floor from the probe grid and names the
    # same node by the same helper, after evaluating the whole grid
    density = extremal_density(fam, 2.0, QUAD)
    expected = expected.replace(f"{floor:.3e}", f"{jacobian_floor(fam):.3e}")
    density_routes = (
        lambda: density.l_value(x_nodes[7]),
        lambda: density.evaluate_param(x_nodes[7], y_nodes[0]),
        lambda: admissibility_check(fam, density, QUAD, x_nodes[5:9]),
    )
    for chunk in (family_module._CHUNK, 100):
        monkeypatch.setattr(family_module, "_CHUNK", chunk)
        for route in density_routes:
            with pytest.raises(DegenerateJacobian) as raised:
                route()
            assert str(raised.value) == expected


def test_extremal_density_parallel_constant():
    entry = make_parallel([(0.0, 2.0)], [(0.0, 3.0)])
    density = extremal_density(entry.family, 2.0, QUAD)
    for x, y in (([0.3], [0.4]), ([1.7], [2.9])):
        assert density.evaluate_param(x, y) == pytest.approx(1.0 / 3.0, rel=1e-12)
    # ambient route through Newton inversion of the identity map
    assert density.evaluate_ambient([1.0, 1.5]) == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_extremal_density_radial_ambient():
    # 1/(|z| log(r1/r0)), reached both through inversion and a given inverse
    entry = make_polar_annulus(1.0, 2.0, mode="radial")
    density = extremal_density(entry.family, 2.0, QUAD)
    z = np.array([1.3, 0.4])
    expected = 1.0 / (np.hypot(*z) * np.log(2.0))
    assert density.evaluate_ambient(z) == pytest.approx(expected, rel=1e-8)

    def inverse(z):
        return np.array([np.arctan2(z[1], z[0])]), np.array([np.hypot(z[0], z[1])])

    with_inverse = extremal_density(entry.family, 2.0, QUAD, inverse=inverse)
    assert with_inverse.evaluate_ambient(z) == pytest.approx(expected, rel=1e-12)


def test_extremal_density_keeps_no_per_query_state():
    entry = make_polar_annulus(1.0, 2.0, mode="radial")
    density = extremal_density(entry.family, 2.0, QuadratureScheme(order=6, subdivisions=1))
    rng = np.random.default_rng(4)
    radius = rng.uniform(1.05, 1.95, 200)
    angle = rng.uniform(0.05, 2.0 * np.pi - 0.05, 200)
    points = np.stack([radius * np.cos(angle), radius * np.sin(angle)], -1)

    def footprint():
        # attribute names, with the size of every array or container
        return {
            name: (
                value.size if isinstance(value, np.ndarray)
                else len(value) if hasattr(value, "__len__")
                else type(value)
            )
            for name, value in vars(density).items()
        }

    first = density.evaluate_ambient(points[0])
    after_one = footprint()
    for z in points[1:]:
        density.evaluate_ambient(z)
    assert footprint() == after_one
    assert density.evaluate_ambient(points[0]) == first


def _density_families():
    radial = make_polar_annulus(1.0, 2.0, mode="radial").family
    circular = make_polar_annulus(0.7, 1.9, mode="circular").family
    return {
        "radial": radial,
        "radial fd": replace(radial, jacobian=None),
        "circular": circular,
        "circular fd": replace(circular, jacobian=None),
        "shear": make_shear([(0.0, 1.0)], [(-0.5, 1.0)], [[0.7]]).family,
        "shear (1,2)": make_shear([(0.0, 1.0)], [(0.0, 1.0), (0.0, 2.0)], [[0.7, -0.3]]).family,
        "condenser": build_entry("condenser", {"sx": 1.7, "sy": 0.6}).family,
    }


def two_call_reference(density, xs, ys):
    """Density on the grid of ``xs`` and ``ys``, its area factors and l(xs),
    from one node_fields call for l and one for the density, with the
    density's arithmetic on arrays of the same shapes."""
    fam, q = density.family, density.q
    inner, weights = QUAD.box_rule(fam.surface_box)

    def grid(nodes):
        fields = node_fields(fam, np.repeat(xs, len(nodes), 0), np.tile(nodes, (len(xs), 1)))
        return fields.dets.reshape(len(xs), -1), fields.areas.reshape(len(xs), -1)

    dets, areas = grid(inner)
    l_vals = ((areas / dets) ** q * dets) @ weights
    dets, areas = grid(ys)
    return (areas / dets) ** (q - 1.0) / l_vals[:, None], areas, l_vals


@pytest.mark.parametrize("name", list(_density_families()))
def test_density_matches_a_two_call_reference_bit_for_bit(name):
    fam = _density_families()[name]
    density = extremal_density(fam, 2.5, QUAD)
    rng = np.random.default_rng(8)
    for _ in range(3):
        x = fam.param_box.lower + rng.uniform(0.1, 0.9, fam.n - fam.m) * fam.param_box.widths
        y = fam.surface_box.lower + rng.uniform(0.1, 0.9, fam.m) * fam.surface_box.widths
        values, _, l_vals = two_call_reference(density, x[None], y[None])
        assert density.evaluate_param(x, y) == values[0, 0]
        assert density.l_value(x) == l_vals[0]
        z = evaluate_map(fam, x, y)
        x_found, y_found = density._invert(z)
        values = two_call_reference(density, x_found[None], y_found[None])[0]
        assert density.evaluate_ambient(z) == values[0, 0]
    # admissibility with the density's own rule (one shared grid) and another
    samples = fam.param_box.grid(3)
    for quad in (QUAD, QuadratureScheme(order=3, subdivisions=2)):
        nodes, weights = quad.box_rule(fam.surface_box)
        values, areas, _ = two_call_reference(density, samples, nodes)
        integrals = [value for _, value in admissibility_check(fam, density, quad, samples)]
        assert integrals == list((values * areas) @ weights)


def test_density_evaluations_call_the_jacobian_once():
    fam = make_polar_annulus(1.0, 2.0, mode="radial").family
    batches = []

    def recording(x, y):
        batches.append(len(x))
        return fam.jacobian(x, y)

    counted = replace(fam, jacobian=recording)
    density = extremal_density(counted, 2.0, QUAD)
    inner = len(QUAD.box_rule(fam.surface_box)[0])
    batches.clear()
    density.evaluate_param([0.5], [1.5])
    assert batches == [1 + inner]
    batches.clear()
    admissibility_check(counted, density, QUAD, fam.param_box.grid(4))
    assert batches == [4 * inner]


def test_misshapen_points_raise_value_error():
    fam = make_polar_annulus(1.0, 2.0, mode="radial").family

    def inverse(z):
        raise AssertionError(f"the inverse was called with {z}")

    for density in (extremal_density(fam, 2.0, QUAD), extremal_density(fam, 2.0, QUAD, inverse)):
        for z in ([1.5], [1.5, 0.0, 0.0], [[1.5, 0.0]]):
            with pytest.raises(ValueError, match=r"z must have shape \(2,\)"):
                density.evaluate_ambient(z)
        with pytest.raises(ValueError, match=r"x must have shape \(1,\)"):
            density.evaluate_param([0.5, 0.1], [1.5])
        with pytest.raises(ValueError, match=r"y must have shape \(1,\)"):
            density.evaluate_param([0.5], [1.5, 1.2])
        with pytest.raises(ValueError, match=r"x must have shape \(1,\)"):
            density.l_value([0.5, 0.2])
        # a (2, 2) array is not four one-parameter surfaces
        for samples in ([[0.5, 0.6], [0.7, 0.8]], [0.5, 0.6], [[[0.5]]]):
            with pytest.raises(ValueError, match=r"x_samples must have shape \(N, 1\)"):
                admissibility_check(fam, density, QUAD, samples)


def test_inversion_failure_outside_image():
    entry = make_parallel([(0.0, 1.0)], [(0.0, 1.0)])
    density = extremal_density(entry.family, 2.0, QUAD)
    with pytest.raises(InversionFailure):
        density.evaluate_ambient([5.0, 5.0])


def _identity_claiming(matrix):
    """The identity map on the unit square, with ``matrix`` as its analytic Jacobian."""
    unit = BoxDomain([0.0], [1.0])
    return ParametrizedFamily(
        n=2,
        m=1,
        param_box=unit,
        surface_box=unit,
        map=lambda x, y: np.concatenate([x, y], -1),
        jacobian=lambda x, y: np.broadcast_to(matrix, x.shape[:-1] + (2, 2)),
    )


def test_inversion_failure_on_a_singular_jacobian():
    density = extremal_density(_identity_claiming(np.diag([1.0, 0.0])), 2.0, QUAD)
    with pytest.raises(InversionFailure, match="Jacobian is singular during inversion"):
        density.evaluate_ambient([0.3, 0.7])


def test_inversion_failure_after_fifty_newton_iterations():
    # a Jacobian 1e6 times too large makes every Newton step 1e-6 of the right one
    density = extremal_density(_identity_claiming(1e6 * np.eye(2)), 2.0, QUAD)
    with pytest.raises(InversionFailure, match=r"no convergence after 50 Newton iterations for z=\[0.3 0.7\]"):
        density.evaluate_ambient([0.3, 0.7])


def test_density_rejects_points_outside_the_open_boxes():
    # the surface through x = 50 is not in the family, nor is y = -7 on any surface
    entry = make_parallel([(0.0, 2.0)], [(0.0, 3.0)])
    density = extremal_density(entry.family, 2.0, QUAD)
    outside_u = re.escape("x=[50.] lies outside the open box (0.0, 2.0)")
    with pytest.raises(ValueError, match=outside_u):
        density.evaluate_param([50.0], [-7.0])
    with pytest.raises(ValueError, match=re.escape("y=[-7.] lies outside the open box (0.0, 3.0)")):
        density.evaluate_param([1.0], [-7.0])
    with pytest.raises(ValueError, match=outside_u):
        admissibility_check(entry.family, density, QUAD, [[1.0], [50.0]])
    # the boxes are open, and NaN lies in neither
    for x in ([0.0], [2.0], [np.nan]):
        with pytest.raises(ValueError, match="outside the open box"):
            density.l_value(x)
    shear = make_shear([(0.0, 1.0), (0.0, 2.0)], [(0.0, 1.0)], [[1.0], [1.0]]).family
    with pytest.raises(ValueError, match=re.escape("x=[0.5 3. ] lies outside the open box (0.0, 1.0) x (0.0, 2.0)")):
        extremal_density(shear, 2.0, QUAD).l_value([0.5, 3.0])


def test_admissibility_of_extremal_density():
    for entry in (
        make_parallel([(0.0, 2.0)], [(0.0, 3.0)]),
        make_polar_annulus(1.0, 2.0, mode="radial"),
    ):
        density = extremal_density(entry.family, 2.0, QUAD)
        samples = entry.family.param_box.grid(8)
        for x, integral in admissibility_check(entry.family, density, QUAD, samples):
            assert integral == pytest.approx(1.0, abs=1e-10)


def test_admissibility_with_a_copy_of_the_family():
    # a density built on a copy recomputes the area factors on the family given
    fam = make_polar_annulus(1.0, 2.0, mode="radial").family
    samples = fam.param_box.grid(4)
    original = admissibility_check(fam, extremal_density(fam, 2.0, QUAD), QUAD, samples)
    copied = admissibility_check(fam, extremal_density(replace(fam), 2.0, QUAD), QUAD, samples)
    assert [value for _, value in copied] == [value for _, value in original]


def test_coarea_identity_radial():
    entry = make_polar_annulus(1.0, 2.0, mode="radial")
    # g = |z|: both sides equal the integral of the radius over the annulus rays
    lhs, rhs = coarea_check(entry.family, entry.submersion, lambda z: np.hypot(*z), QUAD)
    exact = 2.0 * np.pi * (2.0**2 - 1.0**2) / 2.0
    assert lhs == pytest.approx(exact, rel=1e-12)
    assert rhs == pytest.approx(exact, rel=1e-12)


def test_coarea_check_needs_a_finite_real_integrand():
    entry = make_polar_annulus(1.0, 2.0, mode="radial")
    quad = QuadratureScheme(order=4, subdivisions=1)
    x_nodes, _ = quad.box_rule(entry.family.param_box)
    y_nodes, _ = quad.box_rule(entry.family.surface_box)
    images = evaluate_map(entry.family, x_nodes[0], y_nodes[0]), evaluate_map(entry.family, x_nodes[0], y_nodes[1])
    # the first node's image, then the second's
    cases = (
        (lambda z: np.nan, "nan", images[0]),
        (lambda z: np.inf, "inf", images[0]),
        (lambda z: "abc", "'abc'", images[0]),
        (lambda z: np.array([1.0]), "array([1.])", images[0]),
        (lambda z: 1.0 if np.allclose(z, images[0]) else -np.inf, "-inf", images[1]),
    )
    for integrand, value, z in cases:
        with pytest.raises(EvaluationFailure) as raised:
            coarea_check(entry.family, entry.submersion, integrand, quad)
        assert str(raised.value) == f"integrand returned {value} at z={z}, not a finite real number"
    # integers and 0-d arrays are real numbers
    for integrand in (lambda z: 2, lambda z: np.array(2.0)):
        lhs, rhs = coarea_check(entry.family, entry.submersion, integrand, quad)
        assert lhs == pytest.approx(4.0 * np.pi, rel=1e-12) and rhs == pytest.approx(4.0 * np.pi, rel=1e-12)


def test_coarea_identity_quadratic_integrand():
    entry = make_polar_annulus(1.0, 2.0, mode="radial")
    lhs, rhs = coarea_check(
        entry.family, entry.submersion, lambda z: z[0] ** 2 + z[1] ** 2, QUAD
    )
    exact = 2.0 * np.pi * (2.0**3 - 1.0**3) / 3.0
    assert lhs == pytest.approx(exact, rel=1e-12)
    assert rhs == pytest.approx(exact, rel=1e-12)


def test_submersion_route_matches_reduction():
    for entry in (
        make_parallel([(0.0, 2.0)], [(0.0, 3.0)]),
        make_shear([(0.0, 1.0)], [(0.0, 1.0)], [[1.0]]),
        make_polar_annulus(1.0, 2.0, mode="radial"),
        make_polar_annulus(1.0, 2.0, mode="circular"),
    ):
        for p in (1.5, 2.0, 3.0):
            direct = modulus_p(entry.family, p, QUAD)
            via_sub = submersion_modulus(entry.submersion, entry.family, p, QUAD)
            assert via_sub.modulus == pytest.approx(direct.modulus, rel=1e-10)


def test_submersion_route_radial_value():
    entry = make_polar_annulus(1.0, 2.0, mode="radial")
    report = submersion_modulus(entry.submersion, entry.family, 2.0, QUAD)
    assert report.modulus == pytest.approx(2.0 * np.pi / np.log(2.0), rel=1e-10)


def test_inconsistent_submersion_rejected():
    radial = make_polar_annulus(1.0, 2.0, mode="radial")
    circular = make_polar_annulus(1.0, 2.0, mode="circular")
    # the radius submersion describes circles, not rays
    with pytest.raises(InconsistentSubmersion):
        submersion_modulus(circular.submersion, radial.family, 2.0, QUAD)


def test_submersion_modulus_checks_every_quadrature_node():
    # z -> z_0 on the unit parallel family, with the Jacobian
    # (1 + 0.5 sin^2(4 pi z_0), 0): right where the sine vanishes, at
    # z_0 = 1/4, 1/2, 3/4, and off by up to a third between
    def jacobian(z):
        out = np.zeros(z.shape[:-1] + (1, 2))
        out[..., 0, 0] = 1.0 + 0.5 * np.sin(4.0 * np.pi * z[..., 0]) ** 2
        return out

    fam = make_parallel([(0.0, 1.0)], [(0.0, 1.0)]).family
    wavy = Submersion(n=2, k=1, map=lambda z: z[..., :1], jacobian=jacobian)
    # a check at those points alone, as a coarse probe grid makes, passes
    for x in (0.25, 0.5, 0.75):
        for y in (0.25, 0.5, 0.75):
            assert key_relation_residual(fam, wavy, [x], [y]) < 1e-15
    with pytest.raises(InconsistentSubmersion, match="submersion_modulus"):
        submersion_modulus(wavy, fam, 2.0, QUAD)


def test_flat_submersion_names_the_first_image():
    # a zero differential has residual 1 at every node, so the check of
    # the key relation names the first quadrature node's image
    fam = make_parallel([(0.0, 1.0)], [(0.0, 1.0)]).family
    flat = Submersion(
        n=2, k=1, map=lambda z: 0.0 * z[..., :1], jacobian=lambda z: np.zeros(z.shape[:-1] + (1, 2))
    )
    z = evaluate_map(fam, QUAD.box_rule(fam.param_box)[0][0], QUAD.box_rule(fam.surface_box)[0][0])
    with pytest.raises(InconsistentSubmersion) as raised:
        submersion_modulus(flat, fam, 2.0, QUAD)
    assert str(raised.value) == (
        f"submersion_modulus: area-factor residual 1.000e+00 at z={z} exceeds 1.0e-05; "
        "the submersion's level sets do not match the family"
    )


def test_extremality_zero_amplitude_gap_vanishes(monkeypatch):
    monkeypatch.setattr(modulus_module, "_AMPLITUDE", 0.0)
    fam = make_parallel([(0.0, 1.0)], [(0.0, 1.0)]).family
    gap = extremality_probe(fam, 2.0, QUAD, trials=3)
    assert abs(gap) < 1e-10


def test_extremality_random_competitors_lose():
    for entry in (
        make_parallel([(0.0, 2.0)], [(0.0, 3.0)]),
        make_polar_annulus(1.0, 2.0, mode="radial"),
    ):
        for p in (1.5, 2.0, 3.0):
            gap = extremality_probe(entry.family, p, QUAD, trials=40, seed=1)
            assert gap >= -1e-9


def test_extremality_probe_needs_trials():
    # a count like the others: 2.5 used to die in range(), True to run one trial
    fam = make_parallel([(0.0, 1.0)], [(0.0, 1.0)]).family
    for bad in (0, 2.5, True, 3.0, "3"):
        with pytest.raises(ValueError, match="trials must be"):
            extremality_probe(fam, 2.0, QUAD, trials=bad)


def test_extremality_probe_raises_on_a_non_finite_competitor_energy(monkeypatch):
    monkeypatch.setattr(modulus_module, "_AMPLITUDE", 0.9)
    # a modulus of 1.79e308 is finite, and a competitor's energy above it overflows
    a = 1.79e308 ** (-1.0 / 3.0)
    fam = constant_jacobian_family(np.diag([1.0 / a, a]))
    assert np.isfinite(modulus_p(fam, 3.0, QUAD).modulus)
    with pytest.raises(NonFiniteIntegrand, match="p-energy of competitor 0 is inf"):
        extremality_probe(fam, 3.0, QUAD, trials=3)


def _probe_reference(fam, p, quad, trials, seed):
    """Each trial's competitor and p-energy, and the modulus, one trial at
    a time from the probe's three bulk draws."""
    density = extremal_density(fam, p, quad)
    x_nodes, x_weights = quad.box_rule(fam.param_box)
    y_nodes, y_weights = quad.box_rule(fam.surface_box)
    values, fields = density._evaluate_grid(x_nodes, y_nodes)
    l_vals = np.array([density.l_value(x) for x in x_nodes])
    modulus = x_weights @ l_vals ** (1.0 - p)
    k = fam.n - fam.m
    tx = (x_nodes - fam.param_box.lower) / fam.param_box.widths
    ty = (y_nodes - fam.surface_box.lower) / fam.surface_box.widths
    rng = np.random.default_rng(seed)
    orders = rng.integers(1, 4, size=(trials, fam.n))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(trials, fam.n))
    amps = rng.uniform(0.1, 1.0, size=trials)
    competitors, energies = [], []
    for trial in range(trials):
        wave_x = np.cos(2.0 * np.pi * orders[trial, :k] * tx + phases[trial, :k]).prod(axis=1)
        wave_y = np.cos(2.0 * np.pi * orders[trial, k:] * ty + phases[trial, k:]).prod(axis=1)
        competitor = values + modulus_module._AMPLITUDE * values.min() * amps[trial] * np.outer(wave_x, wave_y)
        competitor = competitor / ((competitor * fields.areas) @ y_weights).min()
        competitors.append(competitor)
        energies.append(x_weights @ ((competitor**p * fields.dets) @ y_weights))
    return competitors, np.array(energies), modulus


PROBE_CASES = [
    (make_polar_annulus(1.0, 2.3, mode="radial").family, 2.4, QUAD),
    (make_parallel([(0.0, 1.0)], [(0.0, 1.0), (0.0, 2.0)]).family, 2.9, QuadratureScheme(5, 2)),
    (
        make_shear([(0.0, 1.0)] * 2, [(0.0, 1.5), (0.0, 0.7)], [[0.3, -0.2], [0.1, 0.5]]).family,
        1.7,
        QuadratureScheme(3, 2),
    ),
    (build_entry("condenser").family, 2.2, QUAD),
]


@pytest.mark.parametrize("fam, p, quad", PROBE_CASES)
def test_extremality_probe_matches_a_per_trial_loop(fam, p, quad):
    # the gap is a small difference of energies; compare it on their scale
    _, energies, modulus = _probe_reference(fam, p, quad, trials=30, seed=5)
    gap = extremality_probe(fam, p, quad, trials=30, seed=5)
    assert abs(gap - (energies.min() - modulus)) <= 1e-12 * modulus
    assert gap >= -1e-9


@pytest.mark.parametrize("fam, p, quad", PROBE_CASES)
def test_extremality_probe_batches_do_not_change_the_gap(fam, p, quad, monkeypatch):
    # 97 values a batch: several rows or a row at a time, never a whole trial
    modulus = modulus_p(fam, p, quad).modulus
    whole = extremality_probe(fam, p, quad, trials=7, seed=2)
    monkeypatch.setattr(family_module, "_CHUNK", 97)
    assert abs(extremality_probe(fam, p, quad, trials=7, seed=2) - whole) <= 1e-13 * modulus


def test_extremality_probe_names_the_first_non_finite_competitor():
    # diag(s, t) has density 1/t and |det J| = s t, so a competitor's
    # p-energy is the identity's times s t^(1-p).  Put that factor at the
    # largest float over a threshold between trial 0's energy and a later
    # trial's: only the trials above it have an energy beyond the largest
    # float, and the first of them is named.
    p, trials, s = 3.0, 12, 1e200
    _, energies, _ = _probe_reference(constant_jacobian_family(np.eye(2)), p, QUAD, trials, seed=4)
    first = int(np.argmax(energies > energies[0]))
    assert first > 0
    threshold = 0.5 * (energies[0] + energies[energies > energies[0]].min())
    t = (np.finfo(float).max / threshold / s) ** (1.0 / (1.0 - p))
    fam = constant_jacobian_family(np.diag([s, t]))
    with pytest.raises(NonFiniteIntegrand, match=f"p-energy of competitor {first} is inf"):
        extremality_probe(fam, p, QUAD, trials=trials, seed=4)


def test_extremality_probe_holds_no_more_than_modulus_p(monkeypatch):
    # 373,248 nodes in kernel batches of 4096: besides the density, the
    # probe keeps one batch-sized buffer, so its peak is modulus_p's
    monkeypatch.setattr(family_module, "_CHUNK", 1 << 12)
    fam = make_shear([(0.0, 1.0)], [(0.0, 1.0), (0.0, 1.0)], [[0.5, 0.5]]).family
    quad = QuadratureScheme(12, 6)
    grid = 8 * 72**3
    # first-call allocations, numpy's lazy np.random import among them, stay out of the peaks
    extremality_probe(fam, 2.5, QuadratureScheme(2, 1), trials=2)
    peaks = []
    for route in (lambda: modulus_p(fam, 2.5, quad), lambda: extremality_probe(fam, 2.5, quad)):
        tracemalloc.start()
        try:
            route()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.25 * grid


def test_extremality_probe_rejects_an_overflowing_modulus():
    # l = 1e-195 is usable, but l^(1-p) = 1e390 overflows at p = 3
    fam = constant_jacobian_family(np.diag([1e130, 1e-130]))
    quad = QuadratureScheme(4, 1)
    for route in (modulus_p, extremality_probe):
        with pytest.raises(NonFiniteIntegrand, match="modulus integral is non-finite"):
            route(fam, 3.0, quad)


@settings(max_examples=30, deadline=None, database=None)
@given(st.data())
def test_shear_families_match_the_closed_form(data):
    n = data.draw(st.integers(2, 4), label="n")
    m = data.draw(st.integers(1, n - 1), label="m")
    k = n - m
    entries = st.lists(st.floats(-2.0, 2.0), min_size=k * m, max_size=k * m)
    shear = np.array(data.draw(entries, label="shear")).reshape(k, m)
    corner = st.floats(-1.0, 1.0)
    width = st.floats(0.25, 2.0)
    u = [(lo, lo + data.draw(width)) for lo in data.draw(st.lists(corner, min_size=k, max_size=k))]
    v = [(lo, lo + data.draw(width)) for lo in data.draw(st.lists(corner, min_size=m, max_size=m))]
    p = data.draw(st.floats(1.25, 4.0), label="p")
    entry = make_shear(u, v, shear)
    quad = QuadratureScheme(2, 1)
    vol_u = np.prod([hi - lo for lo, hi in u])
    vol_v = np.prod([hi - lo for lo, hi in v])
    gram = shear.T @ shear + np.eye(m)
    expected = vol_u * vol_v ** (1.0 - p) * np.linalg.det(gram) ** (-p / 2.0)
    direct = modulus_p(entry.family, p, quad).modulus
    via_sub = submersion_modulus(entry.submersion, entry.family, p, quad).modulus
    assert direct == pytest.approx(expected, rel=1e-10)
    assert via_sub == pytest.approx(expected, rel=1e-10)
    assert extremality_probe(entry.family, p, quad, trials=5) >= -1e-9


def test_import_loads_no_scipy():
    # scipy is imported lazily, by the discrete oracle only
    import surfmod

    src = os.path.dirname(os.path.dirname(surfmod.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, surfmod; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"

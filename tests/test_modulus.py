"""Surface weights, moduli, extremal densities, and both verification routes."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfmod import (
    BoxDomain,
    DegenerateJacobian,
    InconsistentSubmersion,
    InversionFailure,
    ModulusReport,
    NonFiniteIntegrand,
    ParametrizedFamily,
    QuadratureScheme,
    Submersion,
    admissibility_check,
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
    submersion_modulus,
)

QUAD = QuadratureScheme(order=10, subdivisions=3)


def constant_jacobian_family(matrix):
    matrix = np.asarray(matrix, dtype=float)
    box = BoxDomain([0.0], [1.0])
    return ParametrizedFamily(
        n=2,
        m=1,
        param_box=box,
        surface_box=box,
        map=lambda x, y: matrix @ np.concatenate([x, y]),
        jacobian=lambda x, y: matrix,
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
    # ratio (area/det)^q overflows while det stays above the floor
    density = extremal_density(constant_jacobian_family([[1e-200, 0.0], [0.0, 1e20]]), 2.0, QUAD)
    with pytest.raises(NonFiniteIntegrand):
        density.l_value([0.5])


def test_underflowing_weight_detected():
    fam = constant_jacobian_family([[1.0, 0.0], [0.0, 1e-301]])
    with pytest.raises(NonFiniteIntegrand):
        modulus_p(fam, 2.0, QUAD)


def test_non_finite_weight_names_the_first_bad_node():
    # A / |det J| = 1 / s, whose square overflows where s = 1e-160: at the
    # nodes with x > 1/2 and y > 1, while |det J| = 1e-10 at every node.
    def jacobian(x, y):
        return np.diag([1e-160, 1e150] if x[0] > 0.5 and y[0] > 1.0 else [1.0, 1e-10])

    fam = ParametrizedFamily(
        n=2,
        m=1,
        param_box=BoxDomain([0.0], [1.0]),
        surface_box=BoxDomain([0.0], [2.0]),
        map=lambda x, y: np.concatenate([x, y]),
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


def test_inversion_failure_outside_image():
    entry = make_parallel([(0.0, 1.0)], [(0.0, 1.0)])
    density = extremal_density(entry.family, 2.0, QUAD)
    with pytest.raises(InversionFailure):
        density.evaluate_ambient([5.0, 5.0])


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


def test_flat_submersion_names_the_first_image():
    # a zero differential passes a consistency probe this loose, then fails
    # at the first quadrature node
    fam = make_parallel([(0.0, 1.0)], [(0.0, 1.0)]).family
    flat = Submersion(n=2, k=1, map=lambda z: 0.0 * z[:1], jacobian=lambda z: np.zeros((1, 2)))
    z = evaluate_map(fam, QUAD.box_rule(fam.param_box)[0][0], QUAD.box_rule(fam.surface_box)[0][0])
    with pytest.raises(DegenerateJacobian) as raised:
        submersion_modulus(flat, fam, 2.0, QUAD, residual_tol=10)
    assert str(raised.value) == f"submersion differential is rank-deficient at z={z}"


def test_extremality_zero_amplitude_gap_vanishes():
    fam = make_parallel([(0.0, 1.0)], [(0.0, 1.0)]).family
    gap = extremality_probe(fam, 2.0, QUAD, trials=3, amplitude=0.0)
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
    fam = make_parallel([(0.0, 1.0)], [(0.0, 1.0)]).family
    with pytest.raises(ValueError):
        extremality_probe(fam, 2.0, QUAD, trials=0)


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

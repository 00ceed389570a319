"""Catalog families: closed forms, cross-links, and the registry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfmod import (
    AmbientMap,
    ConfigError,
    InconsistentSubmersion,
    QuadratureScheme,
    available_families,
    build_entry,
    coarea_check,
    conjugate_exponent,
    default_quadrature,
    extremal_density,
    jacobian_full,
    make_condenser,
    make_parallel,
    make_polar_annulus,
    make_pq_map,
    make_shear,
    modulus_p,
    standard_entries,
    submersion_modulus,
)
from surfmod import catalog
from surfmod.catalog import _box, _linear_entry

from _oracles import minor_sum_norm, well_conditioned

LIGHT = QuadratureScheme(order=8, subdivisions=2)


def test_standard_entries_match_closed_forms():
    for entry in standard_entries():
        for p in (1.5, 2.0, 3.0):
            report = modulus_p(entry.family, p, default_quadrature())
            assert report.modulus == pytest.approx(
                entry.expected_modulus(p), rel=1e-7
            ), entry.name


def test_parallel_transverse_product():
    # the 1/p and 1/q powers of the two directional moduli multiply to one
    entry = make_parallel([(0.0, 2.0)], [(0.0, 3.0)])
    for p in (1.5, 2.0, 3.0):
        q = conjugate_exponent(p)
        direct = modulus_p(entry.family, p, LIGHT).modulus
        crossed = modulus_p(entry.transverse.family, q, LIGHT).modulus
        assert direct ** (1.0 / p) * crossed ** (1.0 / q) == pytest.approx(
            1.0, rel=1e-8
        )


def test_pq_map_transverse_product():
    for p in (1.5, 2.0, 3.0):
        entry = make_pq_map(p, scale=2.0)
        q = conjugate_exponent(p)
        direct = modulus_p(entry.family, p, LIGHT).modulus
        crossed = modulus_p(entry.transverse.family, q, LIGHT).modulus
        assert direct ** (1.0 / p) * crossed ** (1.0 / q) == pytest.approx(
            1.0, rel=1e-8
        )


def test_parallel_transverse_with_unequal_dimensions():
    # k = 2 parameter axes, m = 1 surface axis: the transverse family sweeps
    # the slices U x {y}, mapping (x_v, y_u) to (y_u, x_v)
    entry = make_parallel([(0.0, 2.0), (0.0, 1.0)], [(0.0, 3.0)])
    crossed = entry.transverse
    assert (crossed.family.n, crossed.family.m) == (3, 2)
    x_v = np.array([[0.7], [2.5]])
    y_u = np.array([[0.3, 0.4], [1.5, 0.2]])
    images = np.concatenate([y_u, x_v], axis=-1)
    np.testing.assert_array_equal(crossed.family.map(x_v, y_u), images)
    np.testing.assert_array_equal(crossed.submersion.map(images), x_v)
    for p in (1.5, 3.0):
        q = conjugate_exponent(p)
        assert crossed.expected_modulus(q) == pytest.approx(3.0 * 2.0 ** (1.0 - q), rel=1e-15)
        assert modulus_p(crossed.family, q, LIGHT).modulus == pytest.approx(
            crossed.expected_modulus(q), rel=1e-12
        )


@settings(max_examples=25, deadline=None, database=None)
@given(st.data())
def test_random_linear_families(data):
    n = data.draw(st.integers(2, 4), label="n")
    m = data.draw(st.integers(1, n - 1), label="m")
    k = n - m
    matrix = well_conditioned(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")), n)
    corner = st.floats(-1.0, 1.0)
    width = st.floats(0.25, 2.0)
    u = _box([(lo, lo + data.draw(width)) for lo in data.draw(st.lists(corner, min_size=k, max_size=k))])
    v = _box([(lo, lo + data.draw(width)) for lo in data.draw(st.lists(corner, min_size=m, max_size=m))])
    p = data.draw(st.floats(1.25, 4.0), label="p")
    q = conjugate_exponent(p)
    entry = _linear_entry("linear", matrix, u, v, {}, "linear-transverse")
    quad = QuadratureScheme(2, 1)
    direct = modulus_p(entry.family, p, quad).modulus
    assert direct == pytest.approx(entry.expected_modulus(p), rel=1e-10)
    assert submersion_modulus(entry.submersion, entry.family, p, quad).modulus == pytest.approx(
        direct, rel=1e-10
    )
    # reciprocal pair: the product is |det L| / (|L_y| |L_x|), at most one
    # (Fischer's inequality), with equality when the column blocks are orthogonal
    crossed = modulus_p(entry.transverse.family, q, quad).modulus
    product = direct ** (1.0 / p) * crossed ** (1.0 / q)
    bound = abs(np.linalg.det(matrix)) / (minor_sum_norm(matrix[:, k:]) * minor_sum_norm(matrix[:, :k]))
    assert product == pytest.approx(bound, rel=1e-10)
    assert bound <= 1.0 + 1e-12


def test_annulus_reciprocal_pair_at_two():
    radial = make_polar_annulus(1.0, 2.0, mode="radial")
    assert radial.transverse.name == "annulus-circular"
    assert radial.transverse.transverse.name == "annulus-radial"
    a = modulus_p(radial.family, 2.0, LIGHT).modulus
    b = modulus_p(radial.transverse.family, 2.0, LIGHT).modulus
    assert a * b == pytest.approx(1.0, rel=1e-9)


def test_annulus_closed_forms_several_radii():
    for r0, r1 in ((1.0, 2.0), (0.5, 3.0), (2.0, 2.5)):
        for mode in ("radial", "circular"):
            entry = make_polar_annulus(r0, r1, mode=mode)
            for p in (1.5, 2.0, 3.0):
                report = modulus_p(entry.family, p, default_quadrature())
                assert report.modulus == pytest.approx(
                    entry.expected_modulus(p), rel=1e-7
                ), (mode, r0, r1, p)


def test_pq_map_stretch_identity():
    entry = make_pq_map(3.0, scale=2.0)
    q = conjugate_exponent(3.0)
    jac = jacobian_full(entry.family, [0.5], [0.5])
    a, b = jac[0, 0], jac[1, 1]
    assert a**q == pytest.approx(2.0, rel=1e-12)
    assert b**3.0 == pytest.approx(2.0, rel=1e-12)
    assert a * b == pytest.approx(2.0, rel=1e-12)


def test_shear_with_zero_matrix_is_bitwise_parallel():
    quad = LIGHT
    par = make_parallel([(0.0, 2.0)], [(0.0, 3.0)])
    sheared = make_shear([(0.0, 2.0)], [(0.0, 3.0)], [[0.0]])
    a = modulus_p(par.family, 2.0, quad)
    b = modulus_p(sheared.family, 2.0, quad)
    assert a.modulus == b.modulus
    assert a.l_samples == b.l_samples


def test_shear_gram_determinant_in_three_dimensions():
    # two parameter axes, one surface axis, shear column (1, 1): det G = 3
    entry = make_shear([(0.0, 1.0), (0.0, 1.0)], [(0.0, 1.0)], [[1.0], [1.0]])
    expected = 3.0 ** (-2.0 / 2.0)
    assert entry.expected_modulus(2.0) == pytest.approx(expected, rel=1e-13)
    report = modulus_p(entry.family, 2.0, QuadratureScheme(order=4, subdivisions=1))
    assert report.modulus == pytest.approx(expected, rel=1e-10)


def test_shear_constant_density_value():
    entry = make_shear([(0.0, 1.0)], [(0.0, 1.0)], [[1.0]])
    density = extremal_density(entry.family, 2.0, LIGHT)
    expected = entry.expected_density(2.0)
    assert expected == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-13)
    assert density.evaluate_param([0.4], [0.7]) == pytest.approx(expected, rel=1e-10)


def test_pq_map_constant_density_value():
    # 1 / (vol(V) b) with b = scale^(1/p)
    entry = make_pq_map(3.0, scale=2.0, surface_box=[(0.0, 1.5)])
    expected = entry.expected_density(3.0)
    assert expected == pytest.approx(1.0 / (1.5 * 2.0 ** (1.0 / 3.0)), rel=1e-13)
    density = extremal_density(entry.family, 3.0, LIGHT)
    assert density.evaluate_param([0.4], [0.7]) == pytest.approx(expected, rel=1e-10)


def test_condenser_identity_outer_is_base():
    base = make_parallel([(0.0, 1.0)], [(0.0, 1.0)])
    outer = AmbientMap(
        n=2, map=lambda z: z, jacobian=lambda z: np.broadcast_to(np.eye(2), z.shape[:-1] + (2, 2))
    )
    entry = make_condenser(base, outer)
    assert entry.expected_modulus(2.0) == pytest.approx(1.0, rel=1e-12)


def test_condenser_shear_outer_matches_shear_family():
    base = make_parallel([(0.0, 1.0)], [(0.0, 1.0)])
    tilt = np.array([[1.0, 1.0], [0.0, 1.0]])
    outer = AmbientMap(
        n=2, map=lambda z: z @ tilt.T, jacobian=lambda z: np.broadcast_to(tilt, z.shape[:-1] + (2, 2))
    )
    entry = make_condenser(base, outer)
    direct = make_shear([(0.0, 1.0)], [(0.0, 1.0)], [[1.0]])
    for p in (1.5, 2.0, 3.0):
        assert entry.expected_modulus(p) == pytest.approx(
            direct.expected_modulus(p), rel=1e-10
        )


def test_condenser_diagonal_stretch_closed_form():
    # the diagonal map (a z0, z1) on unit flat surfaces has modulus a for all p,
    # because the weight a^(1-q) obeys (1-q)(1-p) = 1
    entry = build_entry("condenser", {"sx": 2.0, "sy": 1.0})
    for p in (1.5, 2.0, 3.0):
        assert entry.expected_modulus(p) == pytest.approx(2.0, rel=1e-9)
        report = modulus_p(entry.family, p, LIGHT)
        assert report.modulus == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("sx, sy", [(-1.7, 0.6), (1.7, -0.6), (-1.7, -0.6), (-1.0, 1.0), (2.0, -0.5)])
def test_condenser_with_negative_entries(sx, sy):
    # a reflection keeps the modulus: the closed form is |sx| |sy|^(1-p)
    entry = build_entry("condenser", {"sx": sx, "sy": sy})
    for p in (1.5, 2.5, 3.0):
        closed_form = abs(sx) * abs(sy) ** (1.0 - p)
        assert entry.expected_modulus(p) == pytest.approx(closed_form, rel=1e-15)
        report = modulus_p(entry.family, p, LIGHT)
        assert report.modulus == pytest.approx(closed_form, rel=1e-12)


@pytest.mark.parametrize("key", ["sx", "sy"])
@pytest.mark.parametrize("value", [0.0, -0.0, float("nan"), float("inf"), float("-inf")])
def test_condenser_rejects_zero_and_non_finite_entries(key, value):
    with pytest.raises(ConfigError, match="finite and nonzero"):
        build_entry("condenser", {key: value})


def test_catalog_validation_errors():
    with pytest.raises(ValueError):
        make_shear([(0.0, 1.0)], [(0.0, 1.0)], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        make_polar_annulus(2.0, 1.0)
    with pytest.raises(ValueError):
        make_polar_annulus(0.0, 1.0)
    with pytest.raises(ValueError):
        make_polar_annulus(1.0, 2.0, mode="diagonal")
    with pytest.raises(ValueError):
        make_pq_map(2.0, scale=-1.0)
    with pytest.raises(ValueError):
        make_pq_map(2.0, param_box=[(0.0, 1.0), (0.0, 1.0)])


@pytest.mark.parametrize("scale", [np.inf, np.nan, 0.0, -1.0])
def test_pq_map_rejects_non_finite_or_nonpositive_scale(scale):
    with pytest.raises(ValueError, match="finite and positive"):
        make_pq_map(2.0, scale=scale)


def test_build_entry_registry():
    assert available_families() == (
        "parallel",
        "shear",
        "annulus-radial",
        "annulus-circular",
        "pq-map",
        "condenser",
    )
    with pytest.raises(ConfigError):
        build_entry("moebius")
    with pytest.raises(ConfigError):
        build_entry("annulus-radial", {"r0": 2.0, "r1": 1.0})
    with pytest.raises(ConfigError):
        build_entry("shear", {"b": [[1.0, 2.0]]})


@pytest.mark.parametrize("name", available_families())
def test_registry_maps_broadcast_a_tensor_grid(name):
    # x (3, k) and y (2, m) as x[:, None] and y[None]: the linear maps used
    # to die in concatenate, and their constant Jacobians came back (3, 1, n, n)
    fam = build_entry(name).family
    rng = np.random.default_rng(5)
    k = fam.n - fam.m
    x = fam.param_box.lower + rng.uniform(0.1, 0.9, (3, k)) * fam.param_box.widths
    y = fam.surface_box.lower + rng.uniform(0.1, 0.9, (2, fam.m)) * fam.surface_box.widths
    xs, ys = np.repeat(x, 2, axis=0), np.tile(y, (3, 1))
    for fn, tail in ((fam.map, (fam.n,)), (fam.jacobian, (fam.n, fam.n))):
        grid, paired = fn(x[:, None], y[None]), fn(xs, ys)
        assert grid.shape == (3, 2) + tail and paired.shape == (6,) + tail
        np.testing.assert_array_equal(grid.reshape(paired.shape), paired)


def test_build_entry_defaults():
    entry = build_entry("parallel")
    assert entry.expected_modulus(2.0) == pytest.approx(1.0)
    assert standard_entries()[0].name == "parallel"
    assert len(standard_entries()) == 5
    assert len(standard_entries(include_condenser=True)) == 6


def test_expected_density_admissibility_scale():
    # constant density families: expected density times surface volume is one
    # after accounting for the area factor along the surface
    par = make_parallel([(0.0, 2.0)], [(0.0, 3.0)])
    assert par.expected_density(2.0) * 3.0 == pytest.approx(1.0)
    sheared = make_shear([(0.0, 1.0)], [(0.0, 1.0)], [[1.0]])
    assert sheared.expected_density(2.0) * np.sqrt(2.0) == pytest.approx(1.0)


def _scale_companion_blocks(monkeypatch):
    """Make every linear entry built from here on form 1.01 times its companion block."""
    companion_block = catalog.companion_block
    monkeypatch.setattr(catalog, "companion_block", lambda a, m: 1.01 * companion_block(a, m))


def test_linear_entries_check_the_key_relation_on_their_matrix(monkeypatch):
    # a companion block off by 1% breaks |L_y| = |det L| |B| at every node
    _scale_companion_blocks(monkeypatch)
    shear = make_shear([(0.0, 1.0)], [(0.0, 1.0), (0.0, 2.0)], [[0.5, -0.3]])
    parallel = make_parallel([(0.0, 1.0), (0.0, 1.0)], [(0.0, 1.0)])
    for entry in (shear, parallel, parallel.transverse):
        # reading the submersion forms B and checks nothing against the
        # family; the routes that integrate the pair see the mismatch
        sub = entry.submersion
        with pytest.raises(InconsistentSubmersion, match="submersion_modulus"):
            submersion_modulus(sub, entry.family, 2.0, LIGHT)
        lhs, rhs = coarea_check(entry.family, sub, lambda z: 1.0, LIGHT)
        assert abs(lhs - rhs) > 1e-8 * abs(rhs), entry.name


def _own(entry):
    return entry.family, entry.submersion


def _swapped(mode):
    entry = make_polar_annulus(1.0, 2.0, mode=mode)
    return entry.family, entry.transverse.submersion


# Every catalog construction with a submersion, paired with one whose
# level sets are not its surfaces: a linear entry or its transverse entry
# with its companion block scaled by 1.01, an annulus mode with the other
# mode's submersion.
MISMATCHED_PAIRS = {
    "parallel": lambda: _own(make_parallel([(0.0, 1.0), (0.0, 1.0)], [(0.0, 1.0)])),
    "parallel-transverse": lambda: _own(make_parallel([(0.0, 1.0)], [(0.0, 1.0), (0.0, 2.0)]).transverse),
    "shear": lambda: _own(make_shear([(0.0, 1.0)], [(0.0, 1.0), (0.0, 2.0)], [[0.5, -0.3]])),
    "pq-map": lambda: _own(make_pq_map(2.5)),
    "pq-map-transverse": lambda: _own(make_pq_map(2.5).transverse),
    "annulus-radial": lambda: _swapped("radial"),
    "annulus-circular": lambda: _swapped("circular"),
}


@pytest.mark.parametrize("name", list(MISMATCHED_PAIRS))
def test_submersion_modulus_rejects_a_mismatched_pair_of_every_construction(name, monkeypatch):
    _scale_companion_blocks(monkeypatch)
    fam, sub = MISMATCHED_PAIRS[name]()
    with pytest.raises(InconsistentSubmersion, match="submersion_modulus"):
        submersion_modulus(sub, fam, 2.0, LIGHT)


def _counted(monkeypatch, name):
    """Calls of ``catalog.<name>``, counted in a list that grows per call."""
    calls, original = [], getattr(catalog, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(catalog, name, counted)
    return calls


def test_entries_build_their_submersion_and_transverse_on_first_read(monkeypatch):
    blocks = _counted(monkeypatch, "companion_block")
    builds = _counted(monkeypatch, "Submersion")
    entries = [
        make_parallel([(0.0, 1.0)], [(0.0, 2.0)]),
        make_shear([(0.0, 1.0)], [(0.0, 1.0), (0.0, 2.0)], [[0.5, -0.3]]),
        make_polar_annulus(1.0, 2.0, mode="radial"),
        make_polar_annulus(1.0, 2.0, mode="circular"),
        make_pq_map(2.5),
        build_entry("parallel"),
        build_entry("annulus-circular"),
        build_entry("condenser"),
    ]
    # no build forms a companion block or a submersion
    assert (len(blocks), len(builds)) == (0, 0)
    for entry in entries:
        modulus_p(entry.family, 2.0, LIGHT)
        extremal_density(entry.family, 2.0, LIGHT)
    assert (len(blocks), len(builds)) == (0, 0)

    linear, annulus = entries[0], entries[2]
    for entry in (linear, annulus):
        before = len(builds)
        first = entry.submersion
        assert len(builds) == before + 1
        assert entry.submersion is first
        assert len(builds) == before + 1
    assert (len(blocks), len(builds)) == (1, 2)

    # the transverse entry is built once, and builds its own submersion once
    for entry, name in ((linear, "parallel-transverse"), (annulus, "annulus-circular")):
        crossed = entry.transverse
        assert crossed.name == name and entry.transverse is crossed
        before = len(builds)
        assert crossed.submersion is crossed.submersion
        assert len(builds) == before + 1
    assert len(blocks) == 2
    # the condenser has neither
    assert entries[-1].submersion is None and entries[-1].transverse is None


def test_malformed_box_spec_is_rejected():
    for spec in ([(0.0, 1.0, 2.0)], np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="box argument must be a BoxDomain"):
            make_parallel(spec, [(0.0, 1.0)])


def test_a_shear_has_no_transverse():
    assert make_shear([(0.0, 1.0)], [(0.0, 1.0)], [[0.5]]).transverse is None


def test_polar_annulus_builds_the_other_mode_on_first_read(monkeypatch):
    built = []
    for name in ("_annulus_radial", "_annulus_circular"):
        build = getattr(catalog, name)
        monkeypatch.setattr(catalog, name, lambda *args, b=build, n=name: built.append(n) or b(*args))
    for mode, first, other in (
        ("radial", "_annulus_radial", "_annulus_circular"),
        ("circular", "_annulus_circular", "_annulus_radial"),
    ):
        built.clear()
        entry = make_polar_annulus(1.0, 2.0, mode=mode)
        assert built == [first]
        crossed = entry.transverse
        assert built == [first, other]
        assert crossed.transverse is entry and entry.transverse is crossed
        assert built == [first, other]

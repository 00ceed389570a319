"""The batched node-field kernel and the vectorized family protocol."""

import re
from dataclasses import replace

import numpy as np
import pytest

from surfmod import (
    AmbientMap,
    BoxDomain,
    DegenerateJacobian,
    EvaluationFailure,
    InconsistentSubmersion,
    ParametrizedFamily,
    QuadratureScheme,
    Submersion,
    build_entry,
    catalog,
    compose,
    discretize_family,
    family,
    key_relation_residual,
    make_parallel,
    make_polar_annulus,
    make_shear,
    modulus_p,
    node_fields,
    submersion_modulus,
)

from _oracles import minor_sum_norm, well_conditioned


def _box(rng, dim):
    lower = rng.uniform(-1.0, 1.0, dim)
    return BoxDomain(lower, lower + rng.uniform(0.5, 2.0, dim))


def linear_twins(a, param_box, surface_box, analytic=True):
    """The linear map w -> a w as a vectorized family and a per-point one."""
    n = a.shape[0]
    m = surface_box.dim
    vectorized = ParametrizedFamily(
        n=n,
        m=m,
        param_box=param_box,
        surface_box=surface_box,
        map=lambda x, y: np.concatenate([x, y], axis=-1) @ a.T,
        jacobian=(lambda x, y: np.broadcast_to(a, x.shape[:-1] + a.shape)) if analytic else None,
        vectorized=True,
    )
    per_point = replace(
        vectorized,
        map=lambda x, y: a @ np.concatenate([x, y]),
        jacobian=(lambda x, y: a) if analytic else None,
        vectorized=False,
    )
    return vectorized, per_point


def shear_twins(rng, k, m):
    """A catalog shear family and a per-point family with the same map."""
    entry = make_shear(_box(rng, k), _box(rng, m), rng.uniform(-1.0, 1.0, (k, m)))
    s = np.asarray(entry.parameters["b"])
    jac = entry.family.jacobian(np.zeros(k), np.zeros(m))
    per_point = replace(
        entry.family,
        map=lambda x, y: np.concatenate([x + s @ y, y]),
        jacobian=lambda x, y: jac,
        vectorized=False,
    )
    return entry.family, per_point, np.array(jac)


def random_nodes(rng, fam, count):
    inset = lambda box: rng.uniform(
        box.lower + 0.05 * box.widths, box.upper - 0.05 * box.widths, (count, box.dim)
    )
    return inset(fam.param_box), inset(fam.surface_box)


def check_against_references(fam, matrix, x, y, rtol):
    fields = node_fields(fam, x, y)
    det = abs(np.linalg.det(matrix))
    area = minor_sum_norm(matrix[:, fam.n - fam.m :])
    np.testing.assert_allclose(fields.dets, det, rtol=rtol)
    np.testing.assert_allclose(fields.areas, area, rtol=rtol)


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
def test_linear_and_shear_twins_match_references(analytic):
    rtol = 1e-13 if analytic else 1e-9
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n))
        a = well_conditioned(rng, n)
        twins = linear_twins(a, _box(rng, n - m), _box(rng, m), analytic)
        x, y = random_nodes(rng, twins[0], 12)
        for fam in twins:
            check_against_references(fam, a, x, y, rtol)

        vectorized, per_point, jac = shear_twins(rng, n - m, m)
        if not analytic:
            vectorized = replace(vectorized, jacobian=None)
            per_point = replace(per_point, jacobian=None)
        x, y = random_nodes(rng, vectorized, 12)
        for fam in (vectorized, per_point):
            check_against_references(fam, jac, x, y, rtol)


def test_vectorized_finite_differences_call_the_map_per_axis():
    a = well_conditioned(np.random.default_rng(2), 3)
    fam, _ = linear_twins(a, BoxDomain([0.0], [1.0]), BoxDomain([0.0, 0.0], [1.0, 1.0]), False)
    calls = []

    def counted(x, y):
        calls.append(x.shape)
        return fam.map(x, y)

    x, y = random_nodes(np.random.default_rng(3), fam, 40)
    node_fields(replace(fam, map=counted), x, y)
    # two stencil points per axis, each one call over the whole batch
    assert calls == [(40, 1)] * 6


def test_images_and_chunks_match_single_points(monkeypatch):
    entry = make_polar_annulus(1.0, 2.0, mode="radial")
    x, y = random_nodes(np.random.default_rng(5), entry.family, 7)
    whole = node_fields(entry.family, x, y, submersion=entry.submersion)
    monkeypatch.setattr(family, "_CHUNK", 3)
    chunked = node_fields(entry.family, x, y, submersion=entry.submersion)
    for a, b in zip(whole, chunked):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(whole.dets, y[:, 0], rtol=1e-14)
    np.testing.assert_allclose(whole.areas, 1.0, rtol=1e-14)
    np.testing.assert_allclose(whole.gradients, 1.0 / y[:, 0], rtol=1e-14)
    for point, a, b in zip(whole.images, x, y):
        np.testing.assert_array_equal(point, family.evaluate_map(entry.family, a, b))


def _polar_jacobian(x, y):
    c, s, r = np.cos(x[..., 0]), np.sin(x[..., 0]), y[..., 0]
    return np.stack([np.stack([-r * s, c], -1), np.stack([r * c, s], -1)], -2)


def _polar(vectorized, bad=None):
    """Polar map; ``bad(x, y, z)`` may spoil the image of chosen nodes."""

    def mapping(x, y):
        z = np.stack([y[..., 0] * np.cos(x[..., 0]), y[..., 0] * np.sin(x[..., 0])], -1)
        return z if bad is None else bad(x, y, z)

    return ParametrizedFamily(
        n=2,
        m=1,
        param_box=BoxDomain([0.0], [1.0]),
        surface_box=BoxDomain([0.0], [2.0]),
        map=mapping,
        jacobian=_polar_jacobian,
        vectorized=vectorized,
    )


NODES_X = np.array([[0.1], [0.3], [0.6], [0.8]])
NODES_Y = np.array([[1.0], [1.5], [0.5], [1.2]])
FIRST_BAD = re.escape("x=[0.6], y=[0.5]")


def _nan_where_far(x, y, z):
    return np.where(x[..., :1] > 0.5, np.nan, z)


def test_batch_with_a_non_finite_node_raises():
    for vectorized in (True, False):
        fam = _polar(vectorized, _nan_where_far)
        with pytest.raises(EvaluationFailure, match=FIRST_BAD):
            node_fields(fam, NODES_X, NODES_Y, images=True)


def _short_where_far(x, y, z):
    return z[:1] if x[0] > 0.5 else z


def test_batch_with_a_misshapen_node_raises():
    with pytest.raises(EvaluationFailure, match=FIRST_BAD):
        node_fields(_polar(False, _short_where_far), NODES_X, NODES_Y, images=True)
    with pytest.raises(EvaluationFailure, match=re.escape("(4, 3)")):
        node_fields(
            _polar(True, lambda x, y, z: np.concatenate([z, z[..., :1]], -1)),
            NODES_X,
            NODES_Y,
            images=True,
        )


def test_batch_with_a_misshapen_or_non_finite_jacobian_raises():
    jac = _polar_jacobian
    spoiled = lambda x, y: np.where(x[..., :1, None] > 0.5, np.inf, jac(x, y))
    fam = replace(_polar(True), jacobian=spoiled)
    with pytest.raises(EvaluationFailure, match=FIRST_BAD):
        node_fields(fam, NODES_X, NODES_Y)
    with pytest.raises(EvaluationFailure, match=FIRST_BAD):
        node_fields(replace(fam, vectorized=False), NODES_X, NODES_Y)
    with pytest.raises(EvaluationFailure, match=re.escape("(4, 2, 2)")):
        node_fields(replace(fam, jacobian=lambda x, y: jac(x, y)[:, :1]), NODES_X, NODES_Y)


def test_batch_with_a_degenerate_node_raises():
    # |det J| of the polar map is the radius, which vanishes at y = 0
    y = NODES_Y.copy()
    y[2, 0] = 0.0
    for vectorized in (True, False):
        fam = _polar(vectorized)
        fields = node_fields(fam, NODES_X, y)
        assert fields.dets[2] < 1e-12
        with pytest.raises(DegenerateJacobian, match=re.escape("x=[0.6], y=[0.]")):
            node_fields(fam, NODES_X, y, floor=1e-6)


def test_discretize_twins_agree():
    rng = np.random.default_rng(41)
    vectorized, per_point, _ = shear_twins(rng, 1, 1)
    radial = make_polar_annulus(1.0, 2.0, mode="radial").family
    per_point_radial = replace(
        _polar(False), param_box=radial.param_box, surface_box=radial.surface_box
    )
    for one, two in ((vectorized, per_point), (radial, per_point_radial)):
        fd_one, fd_two = (replace(fam, jacobian=None) for fam in (one, two))
        for fam_one, fam_two in ((one, two), (fd_one, fd_two)):
            a = discretize_family(fam_one, 2.0, 8, 24, 32, rng=np.random.default_rng(9))
            b = discretize_family(fam_two, 2.0, 8, 24, 32, rng=np.random.default_rng(9))
            assert len(a.surfaces) == len(b.surfaces) == 24
            for (i1, w1), (i2, w2) in zip(a.surfaces, b.surfaces):
                np.testing.assert_array_equal(i1, i2)
                np.testing.assert_allclose(w1, w2, rtol=1e-14)


def _node_fields_kernel(fam, x, y):
    fields = node_fields(fam, x, y, images=True)
    return fields.areas, fields.images


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
def test_discretize_matches_the_node_fields_reference(monkeypatch, analytic):
    from surfmod import oracle

    rng = np.random.default_rng(43)
    cases = [
        (shear_twins(rng, 1, 1)[0], 24, 32),
        (make_polar_annulus(1.0, 2.0, mode="circular").family, 24, 32),
        # m = 2 with 257^2 samples per surface, more than one kernel chunk
        (shear_twins(rng, 1, 2)[0], 2, 257),
    ]
    for fam, surfaces, samples in cases:
        fam = fam if analytic else replace(fam, jacobian=None)
        batches = []

        def recording(fn):
            def wrapper(x, y):
                batches.append(len(x))
                return fn(x, y)

            return None if fn is None else wrapper

        counted = replace(fam, map=recording(fam.map), jacobian=recording(fam.jacobian))
        got = discretize_family(counted, 2.0, 6, surfaces, samples, rng=np.random.default_rng(9))
        with monkeypatch.context() as patched:
            patched.setattr(oracle, "_areas_and_images", _node_fields_kernel)
            want = discretize_family(fam, 2.0, 6, surfaces, samples, rng=np.random.default_rng(9))
        assert max(batches) <= family._CHUNK
        assert len(got.surfaces) == len(want.surfaces)
        for (i1, w1), (i2, w2) in zip(got.surfaces, want.surfaces):
            np.testing.assert_array_equal(i1, i2)
            np.testing.assert_array_equal(w1, w2)
    assert max(batches) == family._CHUNK


def submersion_twins(b, analytic=True):
    """The linear submersion z -> b z as a vectorized and a per-point one."""
    k, n = b.shape
    vectorized = Submersion(
        n=n,
        k=k,
        map=lambda z: z @ b.T,
        jacobian=(lambda z: np.broadcast_to(b, z.shape[:-1] + b.shape)) if analytic else None,
        vectorized=True,
    )
    per_point = replace(
        vectorized,
        map=lambda z: b @ z,
        jacobian=(lambda z: b) if analytic else None,
        vectorized=False,
    )
    return vectorized, per_point


def one_point_at_a_time(sub):
    """A per-point copy of a vectorized submersion."""
    lift = lambda fn: None if fn is None else (lambda z: fn(z[None])[0])
    return replace(sub, map=lift(sub.map), jacobian=lift(sub.jacobian), vectorized=False)


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
def test_submersion_twins_give_the_same_gradients(analytic):
    rtol = 1e-13 if analytic else 1e-9
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n))
        a = well_conditioned(rng, n)
        fam, _ = linear_twins(a, _box(rng, n - m), _box(rng, m))
        b = rng.normal(size=(n - m, n))
        x, y = random_nodes(rng, fam, 12)
        for sub in submersion_twins(b, analytic):
            fields = node_fields(fam, x, y, submersion=sub)
            np.testing.assert_allclose(fields.gradients, minor_sum_norm(b), rtol=rtol)
    # catalog submersions against per-point copies of themselves; the angle
    # has gradient norm 1/r and the radius 1
    for mode in ("radial", "circular"):
        entry = make_polar_annulus(1.0, 2.0, mode)
        sub = entry.submersion if analytic else replace(entry.submersion, jacobian=None)
        x, y = random_nodes(rng, entry.family, 12)
        one, two = (
            node_fields(entry.family, x, y, submersion=twin)
            for twin in (sub, one_point_at_a_time(sub))
        )
        np.testing.assert_allclose(one.gradients, two.gradients, rtol=rtol)
        radius = np.hypot(*one.images.T)
        expected = 1.0 / radius if entry.name == "annulus-radial" else np.ones_like(radius)
        np.testing.assert_allclose(one.gradients, expected, rtol=rtol)


def _named_point(message):
    return np.array([float(v) for v in re.search(r"z=\[([^\]]*)\]", message).group(1).split()])


def _spoiled_submersions(vectorized):
    """Angle submersions of the polar nodes, spoiled where the angle exceeds 0.5."""
    angle = lambda z: np.arctan2(z[..., 1], z[..., 0])[..., None]
    far = lambda z: angle(z) > 0.5

    def jac(z):
        rr = z[..., 0] ** 2 + z[..., 1] ** 2
        return np.stack([-z[..., 1] / rr, z[..., 0] / rr], -1)[..., None, :]

    def sub(map_, jacobian):
        spoiled = Submersion(n=2, k=1, map=map_, jacobian=jacobian, vectorized=True)
        return spoiled if vectorized else one_point_at_a_time(spoiled)

    nan_map = lambda z: np.where(far(z), np.nan, angle(z))
    nan_jac = lambda z: np.where(far(z)[..., None], np.nan, jac(z))
    if vectorized:
        wide_map = lambda z: np.concatenate([angle(z), angle(z)], -1)
        wide_jac = lambda z: np.concatenate([jac(z), jac(z)], -2)
    else:
        wide_map = lambda z: np.concatenate([angle(z), angle(z)], -1) if far(z).all() else angle(z)
        wide_jac = lambda z: np.concatenate([jac(z), jac(z)], -2) if far(z).all() else jac(z)
    return {
        "nan map": sub(nan_map, None),
        "nan jacobian": sub(angle, nan_jac),
        "misshapen map": sub(wide_map, None),
        "misshapen jacobian": sub(angle, wide_jac),
    }


@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "per-point"])
def test_batch_with_a_bad_submersion_value_raises(vectorized):
    fam = _polar(True)
    first_bad = node_fields(fam, NODES_X, NODES_Y, images=True).images[2]
    for label, sub in _spoiled_submersions(vectorized).items():
        with pytest.raises(EvaluationFailure) as err:
            node_fields(fam, NODES_X, NODES_Y, submersion=sub)
        message = str(err.value)
        if vectorized and label.startswith("misshapen"):
            expected = "(4, 2)" if label == "misshapen map" else "(4, 2, 2)"
            assert expected in message, label
            continue
        # finite differences name the stencil point, a step away from the node
        np.testing.assert_allclose(_named_point(message), first_bad, atol=1e-4, err_msg=label)


def test_batched_probe_rejects_a_mismatched_pair(monkeypatch):
    quad = QuadratureScheme(order=4, subdivisions=1)
    radial = make_polar_annulus(1.0, 2.0, mode="radial")
    circular = make_polar_annulus(1.0, 2.0, mode="circular")
    radius = circular.submersion
    for sub in (radius, one_point_at_a_time(radius), replace(radius, jacobian=None)):
        with pytest.raises(InconsistentSubmersion, match="submersion_modulus"):
            submersion_modulus(sub, radial.family, 2.0, quad)
    circles = catalog._annulus_circular
    swapped = lambda inner, outer: replace(circles(inner, outer), submersion=radial.submersion)
    monkeypatch.setattr(catalog, "_annulus_circular", swapped)
    with pytest.raises(InconsistentSubmersion, match="catalog entry 'annulus-circular'"):
        make_polar_annulus(1.0, 2.0, mode="radial")


def test_batched_probe_names_a_vanishing_area_factor():
    # the surface direction is mapped to zero, so the area factor vanishes
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    fam, _ = linear_twins(a, BoxDomain([0.0], [1.0]), BoxDomain([0.0], [1.0]))
    sub, _ = submersion_twins(np.array([[1.0, 0.0]]))
    with pytest.raises(DegenerateJacobian, match=re.escape("x=[0.25], y=[0.25]")):
        family._probe_key_relation(fam, sub, 1e-5, "flat")


def test_key_relation_residual_matches_the_reference():
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n))
        a = well_conditioned(rng, n)
        b = rng.normal(size=(n - m, n))  # unrelated to a: the residual is of order one
        expected = abs(minor_sum_norm(a[:, n - m :]) - abs(np.linalg.det(a)) * minor_sum_norm(b))
        expected /= minor_sum_norm(a[:, n - m :])
        fams = linear_twins(a, _box(rng, n - m), _box(rng, m))
        x, y = random_nodes(rng, fams[0], 3)
        for fam in fams:
            for sub in submersion_twins(b):
                batch = family._key_relation_residuals(fam, sub, x, y)
                np.testing.assert_allclose(batch, expected, rtol=1e-13)
                for i in range(len(x)):
                    assert key_relation_residual(fam, sub, x[i], y[i]) == batch[i]
    # consistent catalog pairs keep their vanishing residual
    consistent = (make_parallel([(0.0, 2.0), (1.0, 2.0)], [(0.0, 3.0)]), make_polar_annulus(1.0, 2.0))
    for entry in consistent:
        x, y = random_nodes(rng, entry.family, 10)
        assert family._key_relation_residuals(entry.family, entry.submersion, x, y).max() < 1e-14


# -- compose: both factors through the kernel ---------------------------


def _bend(z):
    return np.stack([z[..., 0] + 0.1 * z[..., 1] ** 2, z[..., 1] + 0.2 * np.sin(z[..., 0])], -1)


def _bend_jacobian(z):
    one, zero = np.ones(z.shape[:-1]), np.zeros(z.shape[:-1])
    return np.stack(
        [np.stack([one, 0.2 * z[..., 1]], -1), np.stack([0.2 * np.cos(z[..., 0]), one], -1)], -2
    )


def _bend_outer(vectorized, map_=_bend, jacobian=_bend_jacobian):
    return AmbientMap(n=2, map=map_, jacobian=jacobian, vectorized=vectorized)


def compose_one_point_at_a_time(fam, outer):
    """The composition node by node, through the per-point functions."""
    inner = lambda x, y: family.evaluate_map(fam, x, y)
    jac = None
    if fam.jacobian is not None and outer.jacobian is not None:
        jac = lambda x, y: outer.jacobian(inner(x, y)) @ family.jacobian_full(fam, x, y)
    return replace(fam, map=lambda x, y: outer.map(inner(x, y)), jacobian=jac, vectorized=False)


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
def test_compose_matches_the_per_point_composition(analytic):
    rtol = 1e-14 if analytic else 1e-9
    x, y = random_nodes(np.random.default_rng(11), _polar(True), 20)
    reference = compose_one_point_at_a_time(_polar(False), _bend_outer(False))
    if not analytic:
        reference = replace(reference, jacobian=None)
    expected = node_fields(reference, x, y, images=True)
    expected_jac = family._jacobian_columns(reference, x, y)
    for inner_vec in (True, False):
        for outer_vec in (True, False):
            inner = _polar(inner_vec)
            if not analytic:
                inner = replace(inner, jacobian=None)
            image = compose(inner, _bend_outer(outer_vec))
            assert image.vectorized and (image.jacobian is None) != analytic
            fields = node_fields(image, x, y, images=True)
            for got, want in zip(fields[:3], expected[:3]):
                np.testing.assert_allclose(got, want, rtol=rtol)
            got_jac = family._jacobian_columns(image, x, y)
            np.testing.assert_allclose(got_jac, expected_jac, rtol=rtol, atol=rtol)
    # the composed map broadcasts over leading axes, none included
    assert image.map(x[0], y[0]).shape == (2,)
    assert image.map(x.reshape(4, 5, 1), y.reshape(4, 5, 1)).shape == (4, 5, 2)


def test_compose_jacobian_needs_both_factors():
    assert compose(_polar(True), _bend_outer(True, jacobian=None)).jacobian is None
    assert compose(replace(_polar(True), jacobian=None), _bend_outer(True)).jacobian is None


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
def test_condenser_matches_its_closed_form(p):
    quad = QuadratureScheme(order=4, subdivisions=2)
    for sx, sy in ((2.0, 1.0), (1.7, 0.6), (0.55, 1.9)):
        entry = build_entry("condenser", {"sx": sx, "sy": sy})
        expected = sx * sy ** (1.0 - p)
        assert modulus_p(entry.family, p, quad).modulus == pytest.approx(expected, rel=1e-12)
        fd = replace(entry.family, jacobian=None)
        assert modulus_p(fd, p, quad).modulus == pytest.approx(expected, rel=1e-9)


def _spoiled_outer(vectorized, spoil):
    """The bend, spoiled by ``spoil(z, value)`` where the polar angle of z exceeds 0.5."""
    far = lambda z: np.arctan2(z[..., 1], z[..., 0]) > 0.5
    return {
        "map": _bend_outer(vectorized, map_=lambda z: spoil(far(z), _bend(z))),
        "jacobian": _bend_outer(vectorized, jacobian=lambda z: spoil(far(z), _bend_jacobian(z))),
    }


def _nan_where(far, value):
    return np.where(far.reshape(far.shape + (1,) * (value.ndim - far.ndim)), np.nan, value)


def test_compose_names_the_first_bad_node_of_either_factor():
    spoiled_inner = [_polar(True, _nan_where_far), _polar(False, _nan_where_far)]
    for inner in spoiled_inner + [_polar(False, _short_where_far)]:
        with pytest.raises(EvaluationFailure, match=FIRST_BAD):
            node_fields(compose(inner, _bend_outer(True)), NODES_X, NODES_Y)
    widen = lambda far, value: np.concatenate([value, value], 0) if far.all() else value
    spoiled_outer = [
        *_spoiled_outer(True, _nan_where).values(),
        *_spoiled_outer(False, _nan_where).values(),
        *_spoiled_outer(False, widen).values(),
    ]
    for outer in spoiled_outer:
        with pytest.raises(EvaluationFailure, match=FIRST_BAD):
            node_fields(compose(_polar(True), outer), NODES_X, NODES_Y, images=True)
    # a vectorized factor's misshapen batch has no first bad node
    widen_all = lambda far, value: np.concatenate([value, value], -1)
    for label, outer in _spoiled_outer(True, widen_all).items():
        shape = "(4, 4)" if label == "map" else "(4, 2, 4)"
        with pytest.raises(EvaluationFailure, match=re.escape(shape)):
            node_fields(compose(_polar(True), outer), NODES_X, NODES_Y, images=True)

"""The batched node-field kernel and the broadcasting calling convention."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from surfmod import (
    AmbientMap,
    BoxDomain,
    DegenerateJacobian,
    EvaluationFailure,
    InconsistentSubmersion,
    NonFiniteIntegrand,
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

_EPS = np.finfo(float).eps


def _box(rng, dim):
    lower = rng.uniform(-1.0, 1.0, dim)
    return BoxDomain(lower, lower + rng.uniform(0.5, 2.0, dim))


def linear_family(a, param_box, surface_box, analytic=True):
    """The linear map w -> a w on the given boxes."""
    return ParametrizedFamily(
        n=a.shape[0],
        m=surface_box.dim,
        param_box=param_box,
        surface_box=surface_box,
        map=lambda x, y: np.concatenate([x, y], axis=-1) @ a.T,
        jacobian=(lambda x, y: np.broadcast_to(a, x.shape[:-1] + a.shape)) if analytic else None,
    )


def random_shear(rng, k, m):
    """A catalog shear family on random boxes, with its constant Jacobian."""
    entry = make_shear(_box(rng, k), _box(rng, m), rng.uniform(-1.0, 1.0, (k, m)))
    return entry.family, np.array(entry.family.jacobian(np.zeros(k), np.zeros(m)))


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
        fam = linear_family(a, _box(rng, n - m), _box(rng, m), analytic)
        x, y = random_nodes(rng, fam, 12)
        check_against_references(fam, a, x, y, rtol)

        # the catalog shear and its twin, the linear map of its Jacobian
        shear, jac = random_shear(rng, n - m, m)
        twin = linear_family(jac, shear.param_box, shear.surface_box, analytic)
        x, y = random_nodes(rng, shear, 12)
        for fam in (shear if analytic else replace(shear, jacobian=None), twin):
            check_against_references(fam, jac, x, y, rtol)

def test_finite_differences_call_the_map_twice_per_axis():
    a = well_conditioned(np.random.default_rng(2), 3)
    fam = linear_family(a, BoxDomain([0.0], [1.0]), BoxDomain([0.0, 0.0], [1.0, 1.0]), False)
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


def test_tensor_grid_broadcasts_to_the_paired_nodes(monkeypatch):
    # x[:, None] with y[None] is every x paired with every y, x-major,
    # bit for bit, in one batch or in many
    rng = np.random.default_rng(53)
    whole = family._CHUNK
    entries = (
        make_polar_annulus(1.0, 2.0, mode="radial"),
        make_shear([(0.0, 1.0), (0.5, 2.0)], [(0.0, 1.0), (-1.0, 0.5)], [[0.3, 0.2], [0.1, -0.5]]),
    )
    for entry in entries:
        fam, sub = entry.family, entry.submersion
        x, _ = random_nodes(rng, fam, 4)
        _, y = random_nodes(rng, fam, 7)
        pairs = (np.repeat(x, len(y), axis=0), np.tile(y, (len(x), 1)))
        for options in ({}, {"images": True}, {"submersion": sub}):
            monkeypatch.setattr(family, "_CHUNK", whole)
            want = node_fields(fam, *pairs, **options)
            row = node_fields(fam, x[0], y, **options)
            for chunk in (whole, 5):
                monkeypatch.setattr(family, "_CHUNK", chunk)
                got = node_fields(fam, x[:, None], y[None], **options)
                for grid, paired in zip(got, want):
                    if paired is None:
                        assert grid is None
                        continue
                    assert grid.shape == (len(x), len(y)) + paired.shape[1:]
                    np.testing.assert_array_equal(grid.reshape(paired.shape), paired)
                for first, grid in zip(row, got):
                    if grid is not None:
                        np.testing.assert_array_equal(first, grid[0])


def test_chunked_grid_names_its_first_degenerate_node(monkeypatch):
    # y-major, the first node with y = 0 is the last of the third batch
    monkeypatch.setattr(family, "_CHUNK", 3)
    y = NODES_Y.copy()
    y[2, 0] = 0.0
    with pytest.raises(DegenerateJacobian, match=re.escape("x=[0.1], y=[0.]")):
        node_fields(_polar(), NODES_X[None], y[:, None], floor=1e-6)


def test_grid_memory_is_bounded_by_the_outputs(monkeypatch):
    # 373,248 nodes in batches of 4096: the peak is dets, areas and the
    # integrand of l(x), not the (x, y) pairs of the whole grid
    monkeypatch.setattr(family, "_CHUNK", 1 << 12)
    fam = make_shear([(0.0, 1.0)], [(0.0, 1.0), (0.0, 1.0)], [[0.5, 0.5]]).family
    quad = QuadratureScheme(12, 6)
    tracemalloc.start()
    try:
        report = modulus_p(fam, 2.5, quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = 2 * 8 * report.node_count
    assert report.node_count == 72**3
    assert peak < 2 * outputs


def _polar_jacobian(x, y):
    c, s, r = np.cos(x[..., 0]), np.sin(x[..., 0]), y[..., 0]
    return np.stack([np.stack([-r * s, c], -1), np.stack([r * c, s], -1)], -2)


def _polar(bad=None):
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
    )


NODES_X = np.array([[0.1], [0.3], [0.6], [0.8]])
NODES_Y = np.array([[1.0], [1.5], [0.5], [1.2]])
FIRST_BAD = re.escape("x=[0.6], y=[0.5]")


def _nan_where_far(x, y, z):
    return np.where(x[..., :1] > 0.5, np.nan, z)


def test_batch_with_a_non_finite_node_raises():
    with pytest.raises(EvaluationFailure, match=FIRST_BAD):
        node_fields(_polar(_nan_where_far), NODES_X, NODES_Y, images=True)


def test_batch_with_a_misshapen_node_raises():
    # a misshapen batch has no first bad node; the message names its shape
    with pytest.raises(EvaluationFailure, match=re.escape("(4, 3)")):
        node_fields(
            _polar(lambda x, y, z: np.concatenate([z, z[..., :1]], -1)),
            NODES_X,
            NODES_Y,
            images=True,
        )


def test_batch_with_a_misshapen_or_non_finite_jacobian_raises():
    jac = _polar_jacobian
    spoiled = lambda x, y: np.where(x[..., :1, None] > 0.5, np.inf, jac(x, y))
    fam = replace(_polar(), jacobian=spoiled)
    with pytest.raises(EvaluationFailure, match=FIRST_BAD):
        node_fields(fam, NODES_X, NODES_Y)
    with pytest.raises(EvaluationFailure, match=re.escape("(4, 2, 2)")):
        node_fields(replace(fam, jacobian=lambda x, y: jac(x, y)[:, :1]), NODES_X, NODES_Y)


def test_first_non_finite_row_is_named_deep_in_a_large_batch():
    # two spoiled rows past the first 4096 of a 5000-node batch; the
    # message names the earlier one, whichever callable returned them
    count = 5000
    x = np.linspace(0.01, 0.99, count)[:, None]
    y = np.linspace(0.5, 1.9, count)[:, None]
    spoiled = x[[4321, 4700], 0]
    far = lambda x: np.isin(x[..., 0], spoiled)
    named = re.escape(f"returned non-finite values at x={x[4321]}, y={y[4321]}")
    fam = _polar(lambda x, y, z: np.where(far(x)[..., None], np.nan, z))
    with pytest.raises(EvaluationFailure, match="^map " + named):
        node_fields(fam, x, y, images=True)
    jac = lambda x, y: np.where(far(x)[..., None, None], np.inf, _polar_jacobian(x, y))
    with pytest.raises(EvaluationFailure, match="^jacobian " + named):
        node_fields(replace(_polar(), jacobian=jac), x, y)
    images = node_fields(_polar(), x, y, images=True).images
    bad_z = lambda z: np.isin(z[..., 0], images[[4321, 4700], 0])
    gradient = lambda z: np.ones(z.shape[:-1] + (1, 2))
    sub = Submersion(
        n=2,
        k=1,
        map=lambda z: np.arctan2(z[..., 1], z[..., 0])[..., None],
        jacobian=lambda z: np.where(bad_z(z)[..., None, None], np.nan, gradient(z)),
    )
    named = re.escape(f"submersion jacobian returned non-finite values at z={images[4321]}")
    with pytest.raises(EvaluationFailure, match=named):
        node_fields(_polar(), x, y, submersion=sub)


def test_batch_with_a_degenerate_node_raises():
    # |det J| of the polar map is the radius, which vanishes at y = 0
    y = NODES_Y.copy()
    y[2, 0] = 0.0
    fields = node_fields(_polar(), NODES_X, y)
    assert fields.dets[2] < 1e-12
    with pytest.raises(DegenerateJacobian, match=re.escape("x=[0.6], y=[0.]")):
        node_fields(_polar(), NODES_X, y, floor=1e-6)


def _stack_dets(stack):
    """node_fields' |det J| at len(stack) nodes of a family whose
    Jacobian at the i-th node is stack[i]."""
    count, n = stack.shape[:2]
    fam = ParametrizedFamily(
        n=n,
        m=1,
        param_box=BoxDomain(np.zeros(n - 1), np.ones(n - 1)),
        surface_box=BoxDomain([0.0], [1.0]),
        map=lambda x, y: np.zeros(x.shape[:-1] + (n,)),
        jacobian=lambda x, y: stack,
    )
    return node_fields(fam, np.full((count, n - 1), 0.5), np.full((count, 1), 0.5)).dets


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_det_matches_lapack(n):
    rng = np.random.default_rng(53)
    lapack = lambda stack: np.abs([np.linalg.det(a) for a in stack])
    # np.linalg.det exponentiates a log-determinant: its relative error
    # grows with |log det|, to about 1.5e-13 at 1e-300
    for scale in (1e-100, 1.0, 1e100):
        stack = scale * np.array([well_conditioned(rng, n) for _ in range(50)])
        np.testing.assert_allclose(_stack_dets(stack), lapack(stack), rtol=1e-12)
    # rank-deficient integer matrices: the last row combines the others
    rows = rng.integers(-9, 10, size=(200, n - 1, n)).astype(float)
    mix = rng.integers(-3, 4, size=(200, 1, n - 1)).astype(float)
    singular = np.concatenate([rows, mix @ rows], axis=1)
    assert np.all(_stack_dets(singular) == 0.0)
    row_products = np.prod(np.linalg.norm(singular, axis=-1), axis=-1)
    assert np.all(lapack(singular) <= 8 * n * _EPS * row_products)
    # near-singular: rounding error is relative to the product of the row norms
    near = singular + 1e-9 * rng.normal(size=singular.shape)
    row_products = np.prod(np.linalg.norm(near, axis=-1), axis=-1)
    np.testing.assert_array_less(
        np.abs(_stack_dets(near) - lapack(near)), 8 * n * _EPS * row_products
    )
    # where a closed-form product overflows, the determinant comes from LU
    big = 1e160 if n == 2 else 1e110
    huge = big * (np.ones((3, n, n)) + np.eye(n) * [[[1e-14]], [[2e-14]], [[3e-14]]])
    assert np.isfinite(lapack(huge)).all()
    np.testing.assert_array_equal(_stack_dets(huge), lapack(huge))


@pytest.mark.parametrize("k, m, scale", [(1, 1, 1e160), (2, 2, 1e80)])
def test_overflowing_det_is_a_non_finite_integrand(k, m, scale):
    # |det J| = scale^n overflows: the LU path at n = 4 must not warn, and
    # n = 2 must not pass inf on to the degeneracy floor
    entry = make_shear([(0.0, 1.0)] * k, [(0.0, 1.0)] * m, np.full((k, m), 0.5))
    jac = entry.family.jacobian
    fam = replace(entry.family, jacobian=lambda x, y: scale * jac(x, y))
    with pytest.raises(NonFiniteIntegrand, match=re.escape("|det J| = inf at x=")):
        modulus_p(fam, 2.0, QuadratureScheme(2, 1))
    x, y = random_nodes(np.random.default_rng(3), fam, 5)
    with pytest.raises(NonFiniteIntegrand, match=re.escape(f"at x={x[0]}, y={y[0]} is not finite")):
        node_fields(fam, x, y)


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
def test_discretize_calls_the_family_in_kernel_sized_batches(analytic):
    rng = np.random.default_rng(43)
    cases = [
        (random_shear(rng, 1, 1)[0], 24, 32),
        (make_polar_annulus(1.0, 2.0, mode="circular").family, 24, 32),
        # m = 2 with 257^2 samples per surface, more than one kernel chunk
        (random_shear(rng, 1, 2)[0], 2, 257),
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
        discretize_family(counted, 2.0, 6, surfaces, samples, rng=np.random.default_rng(9))
        assert max(batches) <= family._CHUNK
    assert max(batches) == family._CHUNK


def linear_submersion(b, analytic=True):
    """The linear submersion z -> b z."""
    k, n = b.shape
    return Submersion(
        n=n,
        k=k,
        map=lambda z: z @ b.T,
        jacobian=(lambda z: np.broadcast_to(b, z.shape[:-1] + b.shape)) if analytic else None,
    )


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
def test_submersion_twins_give_the_same_gradients(analytic):
    rtol = 1e-13 if analytic else 1e-9
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n))
        a = well_conditioned(rng, n)
        fam = linear_family(a, _box(rng, n - m), _box(rng, m))
        b = rng.normal(size=(n - m, n))
        x, y = random_nodes(rng, fam, 12)
        fields = node_fields(fam, x, y, submersion=linear_submersion(b, analytic))
        np.testing.assert_allclose(fields.gradients, minor_sum_norm(b), rtol=rtol)
        # the catalog shear's submersion and its twin, the linear map of its Jacobian
        entry = make_shear(_box(rng, n - m), _box(rng, m), rng.uniform(-1.0, 1.0, (n - m, m)))
        b = entry.submersion.jacobian(np.zeros(n))
        x, y = random_nodes(rng, entry.family, 12)
        sub = entry.submersion if analytic else replace(entry.submersion, jacobian=None)
        for twin in (sub, linear_submersion(b, analytic)):
            fields = node_fields(entry.family, x, y, submersion=twin)
            np.testing.assert_allclose(fields.gradients, minor_sum_norm(b), rtol=rtol)
    # catalog submersions: the angle has gradient norm 1/r and the radius 1
    for mode in ("radial", "circular"):
        entry = make_polar_annulus(1.0, 2.0, mode)
        sub = entry.submersion if analytic else replace(entry.submersion, jacobian=None)
        x, y = random_nodes(rng, entry.family, 12)
        fields = node_fields(entry.family, x, y, submersion=sub)
        radius = np.hypot(*fields.images.T)
        expected = 1.0 / radius if entry.name == "annulus-radial" else np.ones_like(radius)
        np.testing.assert_allclose(fields.gradients, expected, rtol=rtol)


def _copied(fam, sub):
    """Twins of a family and a submersion whose Jacobians are materialized
    copies, not one matrix broadcast over the batch."""
    return (
        replace(fam, jacobian=lambda x, y: np.array(fam.jacobian(x, y))),
        replace(sub, jacobian=lambda z: np.array(sub.jacobian(z))),
    )


def test_a_repeated_jacobian_gives_the_fields_of_its_copies(monkeypatch):
    # fields taken once from a broadcast matrix are every copy's, bit for
    # bit: closed-form and LU determinants, column and QR area factors
    rng = np.random.default_rng(59)
    whole = family._CHUNK
    for n, m in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 3)):
        a = well_conditioned(rng, n)
        fam = linear_family(a, _box(rng, n - m), _box(rng, m))
        shear = make_shear(_box(rng, n - m), _box(rng, m), rng.uniform(-1.0, 1.0, (n - m, m)))
        pairs = ((fam, linear_submersion(catalog.companion_block(a, m))), (shear.family, shear.submersion))
        for fam, sub in pairs:
            copies, sub_copies = _copied(fam, sub)
            x, _ = random_nodes(rng, fam, 6)
            _, y = random_nodes(rng, fam, 5)
            floor = 1e-3 * min(abs(np.linalg.det(a)), 1.0)  # |det| of a shear is 1
            for chunk in (whole, 7):
                monkeypatch.setattr(family, "_CHUNK", chunk)
                got = node_fields(fam, x[:, None], y[None], floor=floor, submersion=sub)
                want = node_fields(copies, x[:, None], y[None], floor=floor, submersion=sub_copies)
                for ours, theirs in zip(got, want):
                    np.testing.assert_array_equal(ours, theirs)


def test_a_repeated_jacobian_fails_as_its_copies_do():
    # a NaN in the one matrix, or a floor above its |det|, names the first node
    a = np.array([[2.0, 0.5], [0.0, 1.5]])
    spoiled = a.copy()
    spoiled[1, 0] = np.nan
    unit = BoxDomain([0.0], [1.0])
    first = f"x={NODES_X[0]}, y={NODES_Y[0]}"
    cases = (
        (spoiled, a[:1], None, EvaluationFailure, first),
        (a, spoiled[1:], None, EvaluationFailure, f"z={a @ np.concatenate([NODES_X[0], NODES_Y[0]])}"),
        (a, a[:1], 4.0, DegenerateJacobian, first),
    )
    for matrix, b, floor, error, named in cases:
        fam, sub = linear_family(matrix, unit, unit), linear_submersion(b)
        messages = []
        for twin, sub_twin in (fam, sub), _copied(fam, sub):
            with pytest.raises(error) as raised:
                node_fields(twin, NODES_X[:, None], NODES_Y[None], floor=floor, submersion=sub_twin)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert named in messages[0], messages[0]


def _named_point(message):
    return np.array([float(v) for v in re.search(r"z=\[([^\]]*)\]", message).group(1).split()])


def _spoiled_submersions():
    """Angle submersions of the polar nodes, spoiled where the angle exceeds 0.5."""
    angle = lambda z: np.arctan2(z[..., 1], z[..., 0])[..., None]
    far = lambda z: angle(z) > 0.5

    def jac(z):
        rr = z[..., 0] ** 2 + z[..., 1] ** 2
        return np.stack([-z[..., 1] / rr, z[..., 0] / rr], -1)[..., None, :]

    sub = lambda map_, jacobian: Submersion(n=2, k=1, map=map_, jacobian=jacobian)
    nan_map = lambda z: np.where(far(z), np.nan, angle(z))
    nan_jac = lambda z: np.where(far(z)[..., None], np.nan, jac(z))
    wide_map = lambda z: np.concatenate([angle(z), angle(z)], -1)
    wide_jac = lambda z: np.concatenate([jac(z), jac(z)], -2)
    return {
        "nan map": sub(nan_map, None),
        "nan jacobian": sub(angle, nan_jac),
        "misshapen map": sub(wide_map, None),
        "misshapen jacobian": sub(angle, wide_jac),
    }


def test_batch_with_a_bad_submersion_value_raises():
    fam = _polar()
    first_bad = node_fields(fam, NODES_X, NODES_Y, images=True).images[2]
    for label, sub in _spoiled_submersions().items():
        with pytest.raises(EvaluationFailure) as err:
            node_fields(fam, NODES_X, NODES_Y, submersion=sub)
        message = str(err.value)
        if label.startswith("misshapen"):
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
    for sub in (radius, replace(radius, jacobian=None)):
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
    fam = linear_family(a, BoxDomain([0.0], [1.0]), BoxDomain([0.0], [1.0]))
    sub = linear_submersion(np.array([[1.0, 0.0]]))
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
        fam = linear_family(a, _box(rng, n - m), _box(rng, m))
        sub = linear_submersion(b)
        x, y = random_nodes(rng, fam, 3)
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


def _bend_outer(map_=_bend, jacobian=_bend_jacobian):
    return AmbientMap(n=2, map=map_, jacobian=jacobian)


def compose_one_point_at_a_time(fam, x, y):
    """Images and chain-rule Jacobians of the bent family, node by node."""
    images, jacobians = [], []
    for a, b in zip(x, y):
        z = family.evaluate_map(fam, a, b)
        images.append(_bend(z))
        jacobians.append(_bend_jacobian(z) @ family.jacobian_full(fam, a, b))
    return np.array(images), np.array(jacobians)


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
def test_compose_matches_the_per_point_composition(analytic):
    rtol = 1e-14 if analytic else 1e-9
    x, y = random_nodes(np.random.default_rng(11), _polar(), 20)
    images, jacobians = compose_one_point_at_a_time(_polar(), x, y)
    inner = _polar() if analytic else replace(_polar(), jacobian=None)
    image = compose(inner, _bend_outer())
    assert (image.jacobian is None) != analytic
    fields = node_fields(image, x, y, images=True)
    np.testing.assert_allclose(fields.images, images, rtol=1e-14)
    np.testing.assert_allclose(fields.dets, np.abs(np.linalg.det(jacobians)), rtol=rtol)
    np.testing.assert_allclose(fields.areas, np.linalg.norm(jacobians[:, :, 1], axis=-1), rtol=rtol)
    got_jac = family._jacobian_columns(image, x, y)
    np.testing.assert_allclose(got_jac, jacobians, rtol=rtol, atol=rtol)
    # the composed map broadcasts over leading axes, none included
    assert image.map(x[0], y[0]).shape == (2,)
    assert image.map(x.reshape(4, 5, 1), y.reshape(4, 5, 1)).shape == (4, 5, 2)


def test_compose_jacobian_needs_both_factors():
    assert compose(_polar(), _bend_outer(jacobian=None)).jacobian is None
    assert compose(replace(_polar(), jacobian=None), _bend_outer()).jacobian is None


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
def test_condenser_matches_its_closed_form(p):
    quad = QuadratureScheme(order=4, subdivisions=2)
    for sx, sy in ((2.0, 1.0), (1.7, 0.6), (0.55, 1.9)):
        entry = build_entry("condenser", {"sx": sx, "sy": sy})
        expected = sx * sy ** (1.0 - p)
        assert modulus_p(entry.family, p, quad).modulus == pytest.approx(expected, rel=1e-12)
        fd = replace(entry.family, jacobian=None)
        assert modulus_p(fd, p, quad).modulus == pytest.approx(expected, rel=1e-9)


def _spoiled_outer(spoil):
    """The bend, spoiled by ``spoil(z, value)`` where the polar angle of z exceeds 0.5."""
    far = lambda z: np.arctan2(z[..., 1], z[..., 0]) > 0.5
    return {
        "map": _bend_outer(map_=lambda z: spoil(far(z), _bend(z))),
        "jacobian": _bend_outer(jacobian=lambda z: spoil(far(z), _bend_jacobian(z))),
    }


def _nan_where(far, value):
    return np.where(far.reshape(far.shape + (1,) * (value.ndim - far.ndim)), np.nan, value)


def test_compose_names_the_first_bad_node_of_either_factor():
    with pytest.raises(EvaluationFailure, match=FIRST_BAD):
        node_fields(compose(_polar(_nan_where_far), _bend_outer()), NODES_X, NODES_Y)
    for outer in _spoiled_outer(_nan_where).values():
        with pytest.raises(EvaluationFailure, match=FIRST_BAD):
            node_fields(compose(_polar(), outer), NODES_X, NODES_Y, images=True)
    # a misshapen batch has no first bad node
    widen_all = lambda far, value: np.concatenate([value, value], -1)
    for label, outer in _spoiled_outer(widen_all).items():
        shape = "(4, 4)" if label == "map" else "(4, 2, 4)"
        with pytest.raises(EvaluationFailure, match=re.escape(shape)):
            node_fields(compose(_polar(), outer), NODES_X, NODES_Y, images=True)

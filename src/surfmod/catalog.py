"""Worked surface families with closed-form moduli.

Each constructor returns a :class:`CatalogEntry` bundling a
parametrized family, an optional submersion describing the same
surfaces as level sets, and the exact modulus as a function of the
exponent.  These entries anchor the test suite: the quadrature-based
computation must reproduce the closed forms, and the two computation
routes must agree on them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError
from .family import (
    AmbientMap,
    BoxDomain,
    NodeFields,
    ParametrizedFamily,
    Submersion,
    _check_key_relation,
    _paired,
    _probe_key_relation,
    compose,
    key_relation_residual,  # noqa: F401 -- traced here by perfbench/spans.py
)
from .linalg import _stacked_abs_det, companion_block, stacked_norm
from .modulus import _TINY, conjugate_exponent, modulus_p
from .quadrature import QuadratureScheme

__all__ = [
    "CatalogEntry",
    "default_quadrature",
    "make_parallel",
    "make_shear",
    "make_polar_annulus",
    "make_pq_map",
    "make_condenser",
    "build_entry",
    "available_families",
    "standard_entries",
]

# Largest area-factor residual tolerated when probing that a catalog
# submersion really describes the family's surfaces.
_PROBE_TOL = 1e-5


def default_quadrature() -> QuadratureScheme:
    """Gauss-Legendre rule of order 12 on 4 cells per axis."""
    return QuadratureScheme(order=12, subdivisions=4)


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """A named family together with its exact modulus.

    ``expected_modulus`` maps any exponent p > 1 to the closed-form
    modulus.  An entry built by :func:`make_condenser`, which pushes any
    family through any :class:`AmbientMap`, has no closed form in
    general and maps p to a direct numerical evaluation instead; the
    registry's "condenser" entry, diag(sx, sy) on the unit parallel
    family, carries its closed form |sx| * |sy|^(1-p).
    ``expected_density`` is the constant value of the extremal density as
    a function of p for families whose extremal density is constant, and
    None otherwise.  ``transverse``
    links to the family swept in the complementary directions when the
    construction provides one.
    """

    name: str
    family: ParametrizedFamily
    expected_modulus: Callable[[float], float]
    parameters: Mapping
    submersion: Submersion | None = None
    transverse: "CatalogEntry | None" = None
    expected_density: Callable[[float], float] | None = None


def _box(spec) -> BoxDomain:
    if isinstance(spec, BoxDomain):
        return spec
    bounds = np.atleast_2d(np.asarray(spec, dtype=float))
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValueError(
            "box argument must be a BoxDomain or a sequence of (lower, upper) pairs"
        )
    return BoxDomain(bounds[:, 0], bounds[:, 1])


def _bounds(box: BoxDomain) -> list:
    return [[float(lo), float(hi)] for lo, hi in zip(box.lower, box.upper)]


def _constant(matrix):
    """Jacobian that is ``matrix`` at every node, for a family
    (called with x, y), a submersion or an ambient map (called with z)."""
    matrix = np.asarray(matrix, dtype=float)
    return lambda w, *_: np.broadcast_to(matrix, w.shape[:-1] + matrix.shape)


def _linear_entry(name: str, L, u: BoxDomain, v: BoxDomain, parameters: Mapping, transverse_name=None) -> CatalogEntry:
    """The linear family w -> L w on U x V, with its closed form.

    The submersion is z -> B z, with B the companion block of L
    (B L = (I | 0)), so its level sets are the family's surfaces.  L is
    the Jacobian at every node and B the submersion's derivative, so the
    key relation |L_y| = |det L| * |B| is checked once, on L and B, with
    the node kernel's own norms; its residual is the one a probe would
    find at each of its nodes.  With
    L_y the last m columns of L, A = sqrt(det(L_y^T L_y)) and J = |det L|,
    every surface weighs l = vol(V) * A^q * J^(1-q), hence

        modulus_p = vol(U) * l^(1-p),

    attained by the constant density (A/J)^(q-1) / l.  With
    ``transverse_name`` the entry links to the family [L_y | L_x] on
    V x U, built the same way.
    """
    k, m = u.dim, v.dim
    n = k + m
    L = np.asarray(L, dtype=float)
    b = companion_block(L, m)
    # A C-ordered right operand halves the batched matmul's time.
    lt = L.T.copy()
    family = ParametrizedFamily(
        n=n,
        m=m,
        param_box=u,
        surface_box=v,
        map=_paired(lambda x, y: np.concatenate([x, y], axis=-1) @ lt),
        jacobian=_paired(_constant(L)),
    )
    sub = Submersion(n=n, k=k, map=lambda z: z @ b.T, jacobian=_constant(b))
    dets, areas = _stacked_abs_det(L[None]), stacked_norm(L[None, :, k:])
    fields = NodeFields(dets, areas, gradients=stacked_norm(b[None]))
    # L_y is the same at every node: a vanishing one is named at the
    # quarter-width node, the first that _probe_key_relation's grid names.
    x, y = u.lower + u.widths / 4, v.lower + v.widths / 4
    _check_key_relation(fields, x, y, _PROBE_TOL, f"catalog entry {name!r}")

    # numpy's det, not the node kernel, keeps the closed form independent
    # of the code it checks; evaluated per call, not at build time.
    def weight(e):
        q = conjugate_exponent(e)
        area = np.sqrt(np.linalg.det(L[:, k:].T @ L[:, k:]))
        det = abs(np.linalg.det(L))
        return area / det, q, v.volume * area**q * det ** (1.0 - q)

    def expected_modulus(e):
        _, _, l_val = weight(e)
        with np.errstate(over="ignore"):
            power = l_val ** (1.0 - e)
            if not _TINY <= power < np.inf:
                # From logarithms where the power leaves the normal range.
                return np.exp(np.log(u.volume) + (1.0 - e) * np.log(l_val))
        return u.volume * power

    def expected_density(e):
        ratio, q, l_val = weight(e)
        return ratio ** (q - 1.0) / l_val

    transverse = None
    if transverse_name is not None:
        swapped = np.concatenate([L[:, k:], L[:, :k]], axis=1)  # [L_y | L_x]
        transverse = _linear_entry(transverse_name, swapped, v, u, parameters)
    return CatalogEntry(
        name=name,
        family=family,
        expected_modulus=expected_modulus,
        parameters=parameters,
        submersion=sub,
        transverse=transverse,
        expected_density=expected_density,
    )


def make_parallel(param_box, surface_box) -> CatalogEntry:
    """Flat surfaces {x} x V swept by the identity map.

    Closed form: modulus_p = vol(U) * vol(V)^(1-p), attained by the
    constant density 1/vol(V).  The entry's ``transverse`` is the family
    of complementary slices U x {y}, with modulus vol(V) * vol(U)^(1-q)
    at the conjugate exponent.
    """
    u = _box(param_box)
    v = _box(surface_box)
    parameters = {"u": _bounds(u), "v": _bounds(v)}
    return _linear_entry("parallel", np.eye(u.dim + v.dim), u, v, parameters, "parallel-transverse")


def make_shear(param_box, surface_box, shear) -> CatalogEntry:
    """Parallel surfaces tilted by a linear shear: (x, y) -> (x + S y, y).

    With G = S^T S + I, the closed form is

        modulus_p = vol(U) * vol(V)^(1-p) * det(G)^(-p/2),

    attained by the constant density 1 / (vol(V) * sqrt(det G)).  The
    shear matrix has one row per parameter axis and one column per
    surface axis.
    """
    u = _box(param_box)
    v = _box(surface_box)
    k, m = u.dim, v.dim
    s = np.atleast_2d(np.asarray(shear, dtype=float))
    if s.shape != (k, m):
        raise ValueError(
            f"shear matrix must have shape ({k}, {m}) for these boxes, got {s.shape}"
        )
    L = np.eye(k + m)
    L[:k, k:] = s
    return _linear_entry("shear", L, u, v, {"u": _bounds(u), "v": _bounds(v), "b": s.tolist()})


def _polar_family(u, v, radius_first: bool) -> ParametrizedFamily:
    """Polar map (r, t) -> (r cos t, r sin t) on U x V.

    The radius is the parameter (circles) when ``radius_first``, and the
    surface coordinate (rays) otherwise.
    """

    def split(x, y):
        return (x[..., 0], y[..., 0]) if radius_first else (y[..., 0], x[..., 0])

    # Filled in place: nested np.stack costs a pass per level.
    def polar_map(x, y):
        r, t = split(x, y)
        out = np.empty(np.broadcast_shapes(r.shape, t.shape) + (2,))
        np.multiply(r, np.cos(t), out=out[..., 0])
        np.multiply(r, np.sin(t), out=out[..., 1])
        return out

    def polar_jac(x, y):
        r, t = split(x, y)
        c, sn = np.cos(t), np.sin(t)
        dr, dt = (0, 1) if radius_first else (1, 0)
        out = np.empty(np.broadcast_shapes(r.shape, t.shape) + (2, 2))
        out[..., 0, dr] = c
        out[..., 1, dr] = sn
        np.multiply(-r, sn, out=out[..., 0, dt])
        np.multiply(r, c, out=out[..., 1, dt])
        return out

    return ParametrizedFamily(n=2, m=1, param_box=u, surface_box=v, map=polar_map, jacobian=polar_jac)


def _annulus_radial(inner: float, outer: float) -> CatalogEntry:
    def angle(z):
        return (np.arctan2(z[..., 1], z[..., 0]) % (2.0 * np.pi))[..., None]

    def angle_jac(z):
        rr = z[..., 0] ** 2 + z[..., 1] ** 2
        return np.stack([-z[..., 1] / rr, z[..., 0] / rr], axis=-1)[..., None, :]

    def expected(e):
        q = conjugate_exponent(e)
        if abs(q - 2.0) < 1e-8:
            weight = np.log(outer / inner)
        else:
            weight = (outer ** (2.0 - q) - inner ** (2.0 - q)) / (2.0 - q)
        return 2.0 * np.pi * weight ** (1.0 - e)

    sub = Submersion(n=2, k=1, map=angle, jacobian=angle_jac)
    return CatalogEntry(
        name="annulus-radial",
        family=_polar_family(_box([(0.0, 2.0 * np.pi)]), _box([(inner, outer)]), False),
        expected_modulus=expected,
        parameters={"r0": float(inner), "r1": float(outer)},
        submersion=sub,
    )


def _annulus_circular(inner: float, outer: float) -> CatalogEntry:
    def radius(z):
        return np.hypot(z[..., 0], z[..., 1])[..., None]

    def radius_jac(z):
        return (z / radius(z))[..., None, :]

    def expected(e):
        if abs(e - 2.0) < 1e-8:
            weight = np.log(outer / inner)
        else:
            weight = (outer ** (2.0 - e) - inner ** (2.0 - e)) / (2.0 - e)
        return (2.0 * np.pi) ** (1.0 - e) * weight

    sub = Submersion(n=2, k=1, map=radius, jacobian=radius_jac)
    return CatalogEntry(
        name="annulus-circular",
        family=_polar_family(_box([(inner, outer)]), _box([(0.0, 2.0 * np.pi)]), True),
        expected_modulus=expected,
        parameters={"r0": float(inner), "r1": float(outer)},
        submersion=sub,
    )


def make_polar_annulus(inner_radius: float, outer_radius: float, mode: str = "radial") -> CatalogEntry:
    """Annulus families in the plane: radial segments or concentric circles.

    mode="radial" sweeps the segments {angle fixed, radius in (r0, r1)};
    at p=2 the modulus is 2*pi / log(r1/r0) and the extremal density is
    1 / (|z| log(r1/r0)).  mode="circular" sweeps the concentric circles
    and at p=2 yields the reciprocal-type value log(r1/r0) / (2*pi).
    Each entry's ``transverse`` is the other one.
    """
    inner = float(inner_radius)
    outer = float(outer_radius)
    if not (np.isfinite(inner) and np.isfinite(outer)) or not 0.0 < inner < outer:
        raise ValueError(f"radii must satisfy 0 < r0 < r1, got ({inner_radius}, {outer_radius})")
    if mode not in ("radial", "circular"):
        raise ValueError(f"mode must be 'radial' or 'circular', got {mode!r}")
    radial = _annulus_radial(inner, outer)
    circular = _annulus_circular(inner, outer)
    _probe_key_relation(radial.family, radial.submersion, _PROBE_TOL, "catalog entry 'annulus-radial'")
    _probe_key_relation(circular.family, circular.submersion, _PROBE_TOL, "catalog entry 'annulus-circular'")
    if mode == "radial":
        return replace(radial, transverse=replace(circular, transverse=radial))
    return replace(circular, transverse=replace(radial, transverse=circular))


def make_pq_map(p: float, scale: float = 2.0, param_box=((0.0, 1.0),), surface_box=((0.0, 1.0),)) -> CatalogEntry:
    """Planar linear family whose two directional area factors are conjugate.

    The map (x, y) -> (a x, b y) with a = scale^(1/q), b = scale^(1/p)
    satisfies a^q = b^p = a*b = |det J|, which makes the surface weight
    of the vertical family equal to vol(V) and that of the horizontal
    transverse family equal to vol(U).  Consequently

        modulus_p(vertical) = vol(U) * vol(V)^(1-p),
        modulus_q(horizontal) = vol(V) * vol(U)^(1-q),

    and the product of the 1/p and 1/q powers is exactly one.
    """
    p = float(p)
    q = conjugate_exponent(p)
    scale = float(scale)
    if not (scale > 0.0 and np.isfinite(scale)):
        raise ValueError(f"scale must be finite and positive, got {scale}")
    u = _box(param_box)
    v = _box(surface_box)
    if u.dim != 1 or v.dim != 1:
        raise ValueError("this construction is planar; both boxes must be 1-d")
    L = np.diag([scale ** (1.0 / q), scale ** (1.0 / p)])
    return _linear_entry("pq-map", L, u, v, {"p": p, "scale": scale}, "pq-map-transverse")


def make_condenser(base: ParametrizedFamily, outer: AmbientMap) -> CatalogEntry:
    """Image of a family under a diffeomorphism of the ambient space.

    The composed map parametrizes the image family directly, with the
    chain rule supplying its Jacobian.  No closed form exists in
    general, so ``expected_modulus`` evaluates the composed family with
    the reduction formula under :func:`default_quadrature`; tests
    compare it against special cases and the discrete oracle.
    """
    if isinstance(base, CatalogEntry):
        base = base.family
    composed = compose(base, outer)
    return CatalogEntry(
        name="condenser",
        family=composed,
        expected_modulus=lambda e: modulus_p(composed, e, default_quadrature()).modulus,
        parameters={},
    )


# -- registry for the command-line front end ---------------------------

_FAMILY_NAMES = (
    "parallel",
    "shear",
    "annulus-radial",
    "annulus-circular",
    "pq-map",
    "condenser",
)


def available_families() -> tuple:
    """Names accepted by :func:`build_entry`."""
    return _FAMILY_NAMES


def build_entry(name: str, parameters: Mapping | None = None, p: float = 2.0) -> CatalogEntry:
    """Build a catalog entry by name with a flat parameter mapping.

    Unknown names and malformed parameters raise ConfigError so the
    command-line layer can report them as configuration problems.
    """
    params = dict(parameters or {})
    try:
        if name == "parallel":
            return make_parallel(params.get("u", [(0.0, 1.0)]), params.get("v", [(0.0, 1.0)]))
        if name == "shear":
            u = _box(params.get("u", [(0.0, 1.0)]))
            v = _box(params.get("v", [(0.0, 1.0)]))
            shear = params.get("b", np.ones((u.dim, v.dim)))
            return make_shear(u, v, shear)
        if name == "annulus-radial":
            return make_polar_annulus(params.get("r0", 1.0), params.get("r1", 2.0), mode="radial")
        if name == "annulus-circular":
            return make_polar_annulus(params.get("r0", 1.0), params.get("r1", 2.0), mode="circular")
        if name == "pq-map":
            return make_pq_map(params.get("p", p), scale=params.get("scale", 2.0))
        if name == "condenser":
            sx = float(params.get("sx", 2.0))
            sy = float(params.get("sy", 1.0))
            if not (np.isfinite(sx) and np.isfinite(sy)) or sx == 0.0 or sy == 0.0:
                raise ValueError(f"sx and sy must be finite and nonzero, got ({sx}, {sy})")
            base = make_parallel([(0.0, 1.0)], [(0.0, 1.0)]).family
            diag = np.array([[sx, 0.0], [0.0, sy]])
            outer = AmbientMap(n=2, map=lambda z: z @ diag.T, jacobian=_constant(diag))
            # Unit flat surfaces stretched by diag(sx, sy) all weigh
            # l = |sx|^(1-q) |sy|, and (1-q)(1-p) = 1 gives
            # |sx| |sy|^(1-p); a reflection keeps the modulus.
            return replace(
                make_condenser(base, outer),
                expected_modulus=lambda e: abs(sx) * abs(sy) ** (1.0 - e),
            )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid parameters for family {name!r}: {exc}") from exc
    raise ConfigError(
        f"unknown family {name!r}; choose one of {', '.join(_FAMILY_NAMES)}"
    )


def standard_entries(include_condenser: bool = False) -> list:
    """The canonical entries used throughout the test suite."""
    entries = [
        make_parallel([(0.0, 2.0)], [(0.0, 3.0)]),
        make_shear([(0.0, 1.0)], [(0.0, 1.0)], [[1.0]]),
        make_polar_annulus(1.0, 2.0, mode="radial"),
        make_polar_annulus(1.0, 2.0, mode="circular"),
        make_pq_map(2.0),
    ]
    if include_condenser:
        entries.append(build_entry("condenser"))
    return entries

"""Parametrized families of surfaces and their Jacobian blocks.

A family is described by a map f defined on a product of two boxes
U x V in R^{n-m} x R^m and taking values in R^n.  For each parameter
value x in U, the slice y -> f(x, y) parametrizes one m-dimensional
surface; sweeping x over U produces the whole family.  The Jacobian of
f splits into an x-block (how surfaces move as the parameter varies)
and a y-block (how each surface is stretched internally), and most of
the modulus machinery is built from the determinant of the full matrix
together with the generalized norm of the y-block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateJacobian, EvaluationFailure, InconsistentSubmersion
from .linalg import generalized_norm  # noqa: F401 -- traced here by perfbench/spans.py
from .linalg import stacked_norm

__all__ = [
    "BoxDomain",
    "ParametrizedFamily",
    "Submersion",
    "AmbientMap",
    "NodeFields",
    "node_fields",
    "jacobian_full",
    "jacobian_partial_y",
    "submersion_jacobian",
    "key_relation_residual",
    "compose",
]

# Central-difference step scale: cube root of machine epsilon balances
# truncation against rounding for second-order-accurate differences.
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)

# Nodes per batch in node_fields; bounds the stacked Jacobians' memory.
_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class BoxDomain:
    """Open axis-aligned box, stored as per-axis lower and upper bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("box bounds must be finite")
        if not np.all(lower < upper):
            raise ValueError("each lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def volume(self) -> float:
        return float(np.prod(self.widths))

    def grid(self, per_axis: int, inset: float = 0.0) -> np.ndarray:
        """Uniform grid of cell midpoints, ``per_axis`` points on each axis.

        With ``inset`` > 0 the grid is built on the box shrunk by that
        fraction of its width on every side.
        """
        lo = self.lower + inset * self.widths
        hi = self.upper - inset * self.widths
        axes = [
            lo[i] + (hi[i] - lo[i]) * (np.arange(per_axis) + 0.5) / per_axis
            for i in range(self.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)


@dataclass(frozen=True, eq=False)
class ParametrizedFamily:
    """Family of m-dimensional surfaces in R^n swept by a parametrizing map.

    Attributes
    ----------
    n : int
        Ambient dimension.
    m : int
        Dimension of each surface, 1 <= m <= n-1.
    param_box : BoxDomain
        Parameter box U of dimension n-m; one surface per point of U.
    surface_box : BoxDomain
        Coordinate box V of dimension m on which every surface is
        parametrized.
    map : callable
        ``map(x, y) -> array of shape (n,)`` with x in U, y in V.
    jacobian : callable or None
        Optional analytic Jacobian ``jacobian(x, y) -> (n, n) array``
        with columns ordered as the n-m x-derivatives followed by the m
        y-derivatives.  When absent, central finite differences are used.
    vectorized : bool
        When True, ``map`` and ``jacobian`` broadcast over leading axes:
        x of shape (..., n-m) and y of shape (..., m) give (..., n) and
        (..., n, n).  :func:`node_fields` then evaluates a whole batch of
        nodes in one call, finite differences included; otherwise it
        calls the map once per node.

    The map is expected to be injective with nonvanishing Jacobian
    determinant; this is not checked at construction and violations
    surface as DegenerateJacobian errors in downstream operations.
    """

    n: int
    m: int
    param_box: BoxDomain
    surface_box: BoxDomain
    map: Callable
    jacobian: Callable | None = None
    vectorized: bool = False

    def __post_init__(self):
        if not 1 <= self.m <= self.n - 1:
            raise ValueError(f"need 1 <= m <= n-1, got n={self.n}, m={self.m}")
        if self.param_box.dim != self.n - self.m:
            raise ValueError(
                f"parameter box has dimension {self.param_box.dim}, expected {self.n - self.m}"
            )
        if self.surface_box.dim != self.m:
            raise ValueError(
                f"surface box has dimension {self.surface_box.dim}, expected {self.m}"
            )


@dataclass(frozen=True, eq=False)
class Submersion:
    """Map F from R^n onto R^k whose level sets are (n-k)-surfaces.

    ``map(z) -> array of shape (k,)``; the optional analytic ``jacobian``
    returns the (k, n) derivative matrix at z.  The differential is
    expected to have full rank wherever it is evaluated.  With
    ``vectorized`` both broadcast over leading axes, z of shape (..., n)
    giving (..., k) and (..., k, n), as for :class:`ParametrizedFamily`.
    """

    n: int
    k: int
    map: Callable
    jacobian: Callable | None = None
    vectorized: bool = False

    def __post_init__(self):
        if not 1 <= self.k <= self.n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got n={self.n}, k={self.k}")


@dataclass(frozen=True, eq=False)
class AmbientMap:
    """Diffeomorphism of R^n used to push a family forward.

    ``map(z) -> array of shape (n,)``; optional ``jacobian(z) -> (n, n)``.
    With ``vectorized`` both broadcast over leading axes, z of shape
    (..., n) giving (..., n) and (..., n, n), as for
    :class:`ParametrizedFamily`.
    """

    n: int
    map: Callable
    jacobian: Callable | None = None
    vectorized: bool = False


def _point(vec, dim: int, label: str) -> np.ndarray:
    vec = np.atleast_1d(np.asarray(vec, dtype=float))
    if vec.shape != (dim,):
        raise ValueError(f"{label} must have shape ({dim},), got {vec.shape}")
    return vec


def _evaluate(fn, vectorized: bool, args: tuple, shape: tuple, label: str, names="xy"):
    """``fn`` at the rows of the equally long arrays ``args``, stacked to (N,) + shape.

    A vectorized callable gets the whole batch, any other one row at a
    time.  Misshapen or non-finite values raise EvaluationFailure naming
    the first offending row, each array by its letter in ``names``.
    """
    where = lambda i: ", ".join(f"{name}={arg[i]}" for name, arg in zip(names, args))
    count = len(args[0])
    if vectorized:
        out = np.asarray(fn(*args), dtype=float)
        if out.shape != (count,) + shape:
            raise EvaluationFailure(
                f"{label} returned shape {out.shape}, expected {(count,) + shape}"
            )
    else:
        out = np.empty((count,) + shape)
        for i in range(count):
            value = np.asarray(fn(*(arg[i] for arg in args)), dtype=float)
            if value.shape != shape:
                raise EvaluationFailure(
                    f"{label} returned shape {value.shape}, expected {shape} at {where(i)}"
                )
            out[i] = value
    bad = ~np.isfinite(out).all(axis=tuple(range(1, out.ndim)))
    if bad.any():
        i = int(np.argmax(bad))
        raise EvaluationFailure(f"{label} returned non-finite values at {where(i)}")
    return out


def _stacked_map(fam: ParametrizedFamily, x, y) -> np.ndarray:
    """Images of the paired nodes (x[i], y[i]), shape (N, n)."""
    return _evaluate(fam.map, fam.vectorized, (x, y), (fam.n,), "map")


def evaluate_map(fam: ParametrizedFamily, x, y) -> np.ndarray:
    """Evaluate fam.map with shape and finiteness checks."""
    x = _point(x, fam.n - fam.m, "x")
    y = _point(y, fam.m, "y")
    return _stacked_map(fam, x[None], y[None])[0]


def _fd_columns(func, w0, lower, upper, coords, out_dim):
    """Central-difference derivative columns of ``func`` at each row of ``w0``.

    ``func`` maps an (N, d) array of points to (N, out_dim); the result
    has shape (N, out_dim, len(coords)), one column per index in
    ``coords``.  When bounds are given, the differencing center is
    clamped so both sample points stay inside the open box (the
    derivative is then taken at the inset point, an O(h) perturbation
    that preserves second-order accuracy in the interior).
    """
    cols = np.empty((w0.shape[0], out_dim, len(coords)))
    for pos, j in enumerate(coords):
        h = _FD_STEP * np.maximum(1.0, np.abs(w0[:, j]))
        center = w0[:, j]
        if lower is not None:
            if np.any(lower[j] + h > upper[j] - h):
                raise EvaluationFailure(
                    f"axis {j} is too narrow for finite differences"
                )
            center = np.minimum(np.maximum(center, lower[j] + h), upper[j] - h)
        wp = w0.copy()
        wm = w0.copy()
        wp[:, j] = center + h
        wm[:, j] = center - h
        cols[:, :, pos] = (func(wp) - func(wm)) / (wp[:, j] - wm[:, j])[:, None]
    return cols


def _jacobian_columns(fam: ParametrizedFamily, x, y, cols=slice(None)) -> np.ndarray:
    """Stacked Jacobian columns ``cols`` at the paired nodes, (N, n, ncols)."""
    n = fam.n
    if fam.jacobian is not None:
        return _evaluate(fam.jacobian, fam.vectorized, (x, y), (n, n), "jacobian")[:, :, cols]
    k = n - fam.m
    lower = np.concatenate([fam.param_box.lower, fam.surface_box.lower])
    upper = np.concatenate([fam.param_box.upper, fam.surface_box.upper])
    func = lambda w: _stacked_map(fam, w[:, :k], w[:, k:])
    w0 = np.concatenate([x, y], axis=1)
    return _fd_columns(func, w0, lower, upper, range(n)[cols], n)


def _point_columns(fam: ParametrizedFamily, x, y, cols) -> np.ndarray:
    x = _point(x, fam.n - fam.m, "x")
    y = _point(y, fam.m, "y")
    return _jacobian_columns(fam, x[None], y[None], cols)[0]


def jacobian_full(fam: ParametrizedFamily, x, y) -> np.ndarray:
    """Full (n, n) Jacobian of the parametrizing map at (x, y).

    Columns are ordered as the n-m derivatives along the parameter axes
    followed by the m derivatives along the surface axes.  Uses the
    analytic Jacobian when the family carries one, otherwise central
    finite differences with per-axis steps scaled to the coordinate
    magnitude and inset at the box boundary.
    """
    return _point_columns(fam, x, y, slice(None))


def jacobian_partial_y(fam: ParametrizedFamily, x, y) -> np.ndarray:
    """The n x m block of y-derivative columns of the map.

    Its generalized norm is the m-dimensional area-distortion factor of
    the surface through x at the point y.
    """
    return _point_columns(fam, x, y, slice(fam.n - fam.m, None))


class NodeFields(NamedTuple):
    """Per-node quantities of a family, stacked over N nodes.

    ``dets`` is |det J| and ``areas`` the generalized norm of the y-block
    of J, both of shape (N,).  ``images`` (N, n) holds the map values and
    ``gradients`` (N,) the generalized norm of a submersion's derivative
    at each image; each is None unless requested.
    """

    dets: np.ndarray
    areas: np.ndarray
    images: np.ndarray | None = None
    gradients: np.ndarray | None = None


def _tensor_pairs(x_nodes, y_nodes):
    """Every row of ``x_nodes`` paired with every row of ``y_nodes``, x-major."""
    return (
        np.repeat(x_nodes, len(y_nodes), axis=0),
        np.tile(y_nodes, (len(x_nodes), 1)),
    )


def node_fields(
    fam: ParametrizedFamily,
    x,
    y,
    floor: float | None = None,
    images: bool = False,
    submersion: "Submersion | None" = None,
) -> NodeFields:
    """|det J| and the y-block area factor at the paired nodes (x[i], y[i]).

    ``x`` has shape (N, n-m) and ``y`` shape (N, m).  A vectorized family
    or submersion is evaluated once per batch; any other one once per
    node.  The area factor is a column norm when m = 1 and the product
    of the diagonal of a stacked QR factor otherwise.

    Every check of the per-point functions applies to the whole batch
    and names the first offending node: misshapen or non-finite map and
    Jacobian values raise EvaluationFailure, and with ``floor`` given a
    node whose |det J| is at or below it raises DegenerateJacobian.  With
    ``images`` the map values are returned too; with ``submersion`` they
    are, along with the norm of the submersion's derivative at each.
    """
    k = fam.n - fam.m
    x = np.asarray(x, dtype=float).reshape(-1, k)
    y = np.asarray(y, dtype=float).reshape(-1, fam.m)
    if len(x) != len(y):
        raise ValueError(f"got {len(x)} parameter nodes but {len(y)} surface nodes")
    if len(x) > _CHUNK:
        parts = [
            node_fields(fam, x[i : i + _CHUNK], y[i : i + _CHUNK], floor, images, submersion)
            for i in range(0, len(x), _CHUNK)
        ]
        return NodeFields(
            *(None if col[0] is None else np.concatenate(col) for col in zip(*parts))
        )
    jac = _jacobian_columns(fam, x, y)
    dets = np.abs(np.linalg.det(jac))
    if floor is not None and np.any(dets <= floor):
        i = int(np.argmax(dets <= floor))
        raise DegenerateJacobian(
            f"|det J| = {dets[i]:.3e} at x={x[i]}, y={y[i]} is below the degeneracy "
            f"floor {floor:.3e}"
        )
    fields = NodeFields(dets, stacked_norm(jac[:, :, k:]))
    if not (images or submersion is not None):
        return fields
    z = _stacked_map(fam, x, y)
    if submersion is None:
        return fields._replace(images=z)
    return fields._replace(images=z, gradients=stacked_norm(_submersion_columns(submersion, z)))


def _submersion_columns(sub: Submersion, z) -> np.ndarray:
    """Stacked (N, k, n) derivative of a submersion at the rows of ``z``.

    Without an analytic Jacobian, central differences with the per-axis
    step of :func:`_fd_columns` (no bounds: F is defined on all of R^n).
    A per-point submersion's map may return a scalar when k = 1, and its
    Jacobian a single row.
    """
    n, k = sub.n, sub.k
    if sub.jacobian is not None:
        jac = sub.jacobian if sub.vectorized else lambda w: np.atleast_2d(sub.jacobian(w))
        return _evaluate(jac, sub.vectorized, (z,), (k, n), "submersion jacobian", "z")
    fn = sub.map if sub.vectorized else lambda w: np.atleast_1d(sub.map(w))
    func = lambda w: _evaluate(fn, sub.vectorized, (w,), (k,), "submersion", "z")
    return _fd_columns(func, z, None, None, range(n), k)


def submersion_jacobian(sub: Submersion, z) -> np.ndarray:
    """The (k, n) derivative matrix of a submersion at the ambient point z."""
    return _submersion_columns(sub, _point(z, sub.n, "z")[None])[0]


def _check_pair(fam: ParametrizedFamily, sub: Submersion):
    """Raise ValueError unless ``sub`` maps R^n onto the family's parameter space."""
    if sub.n != fam.n or sub.k != fam.n - fam.m:
        raise ValueError(
            f"submersion of shape ({sub.n} -> {sub.k}) does not match a family "
            f"with n={fam.n}, m={fam.m}"
        )


def _key_relation_residuals(fam: ParametrizedFamily, sub: Submersion, x, y) -> np.ndarray:
    """Residuals of :func:`key_relation_residual` at the paired nodes (x[i], y[i])."""
    _check_pair(fam, sub)
    fields = node_fields(fam, x, y, submersion=sub)
    vanishing = ~(fields.areas > 1e-300)
    if vanishing.any():
        i = int(np.argmax(vanishing))
        raise DegenerateJacobian(f"surface area factor vanishes at x={x[i]}, y={y[i]}")
    return np.abs(fields.areas - fields.dets * fields.gradients) / fields.areas


def key_relation_residual(fam: ParametrizedFamily, sub: Submersion, x, y) -> float:
    """Relative defect of the area-factor identity tying a family to a submersion.

    When the level sets of ``sub`` are exactly the surfaces of ``fam``,
    the y-block area factor of the map coincides with |det Df| times the
    generalized norm of the submersion's derivative at the image point.
    The returned residual is |lhs - rhs| / lhs with lhs the y-block
    factor; it is zero (up to rounding or finite-difference error) for
    consistent pairs.
    """
    x = _point(x, fam.n - fam.m, "x")
    y = _point(y, fam.m, "y")
    return float(_key_relation_residuals(fam, sub, x[None], y[None])[0])


def _probe_key_relation(fam: ParametrizedFamily, sub: Submersion, tol: float, label: str):
    """Check the area-factor identity on a coarse probe grid, in one batch.

    The probes pair every point of the 2-per-axis and the center grid of
    the parameter box with every such point of the surface box.  A
    residual above ``tol`` anywhere raises InconsistentSubmersion, with
    ``label`` naming the pair; a vanishing area factor raises
    DegenerateJacobian.
    """
    x_probes = np.vstack([fam.param_box.grid(2), fam.param_box.grid(1)])
    y_probes = np.vstack([fam.surface_box.grid(2), fam.surface_box.grid(1)])
    worst = float(_key_relation_residuals(fam, sub, *_tensor_pairs(x_probes, y_probes)).max())
    if not worst <= tol:
        raise InconsistentSubmersion(
            f"{label}: area-factor residual {worst:.3e} exceeds {tol:.1e}; the "
            f"submersion's level sets do not match the family"
        )


def compose(fam: ParametrizedFamily, outer: AmbientMap) -> ParametrizedFamily:
    """Push a family forward through a diffeomorphism of the ambient space.

    The image family keeps the same parameter and surface boxes; its map
    is the composition, and when both factors carry analytic Jacobians
    the chain rule provides one for the composition too, otherwise
    finite differences do.  The image family is always vectorized: each
    factor is evaluated under its own ``vectorized`` flag, a per-point
    one once per node, and a misshapen or non-finite value of either
    names the first offending node.
    """
    if outer.n != fam.n:
        raise ValueError(
            f"ambient map acts on R^{outer.n} but the family lives in R^{fam.n}"
        )
    n, k = fam.n, fam.n - fam.m

    def outer_values(fn, x, y, z, shape, label):
        return _evaluate(lambda x, y, z: fn(z), outer.vectorized, (x, y, z), shape, label, "xyz")

    def batched(fn):
        # Flatten the leading axes of x and y to one batch axis and back.
        def wrapper(x, y):
            x = np.asarray(x, dtype=float)
            out = fn(x.reshape(-1, k), np.asarray(y, dtype=float).reshape(-1, fam.m))
            return out.reshape(x.shape[:-1] + out.shape[1:])

        return wrapper

    def composed(x, y):
        z = _stacked_map(fam, x, y)
        return outer_values(outer.map, x, y, z, (n,), "ambient map")

    def jac(x, y):
        z = _stacked_map(fam, x, y)
        outer_jac = outer_values(outer.jacobian, x, y, z, (n, n), "ambient jacobian")
        return outer_jac @ _jacobian_columns(fam, x, y)

    analytic = fam.jacobian is not None and outer.jacobian is not None
    return replace(
        fam,
        map=batched(composed),
        jacobian=batched(jac) if analytic else None,
        vectorized=True,
    )

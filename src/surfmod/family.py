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

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateJacobian, EvaluationFailure, NonFiniteIntegrand
from .linalg import generalized_norm  # noqa: F401 -- traced here by perfbench/spans.py
from .linalg import _stacked_abs_det, stacked_norm

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


def _count(value, name: str) -> int:
    """``value`` as a positive int; a bool or a non-integral value raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def _product(axes) -> np.ndarray:
    """Tensor grid of the 1-d ``axes`` as rows, (n1 * ... * nd, d), the last axis fastest.

    The rows of ``meshgrid(*axes, indexing="ij")`` stacked, bit for bit:
    each axis is assigned into one preallocated array.
    """
    shape = tuple(len(a) for a in axes)
    out = np.empty(shape + (len(shape),))
    for i, a in enumerate(axes):
        out[..., i] = np.reshape(a, (-1,) + (1,) * (len(shape) - 1 - i))
    return out.reshape(-1, len(shape))


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
        fraction of its width on every side.  ``inset`` must lie in
        [0, 0.5), else ValueError: at 0.5 the box shrinks to its center,
        and beyond it the grid runs backwards.
        """
        per_axis = _count(per_axis, "per_axis")
        if not 0.0 <= inset < 0.5:
            raise ValueError(f"inset must lie in [0, 0.5), got {inset!r}")
        lo, hi = self.lower, self.upper
        if inset:
            lo, hi = lo + inset * self.widths, hi - inset * self.widths
        return _product(lo[:, None] + (hi - lo)[:, None] * (np.arange(per_axis) + 0.5) / per_axis)


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
        ``map(x, y) -> (..., n)`` with x of shape (..., n-m) in U and y
        of shape (..., m) in V, broadcasting over the leading axes.
    jacobian : callable or None
        Optional analytic Jacobian ``jacobian(x, y) -> (..., n, n)``,
        columns ordered as the n-m x-derivatives followed by the m
        y-derivatives.  When absent, central finite differences are used.

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

    ``map(z)`` takes z of shape (..., n) and returns (..., k); the
    optional analytic ``jacobian(z)`` returns the (..., k, n) derivative
    matrices.  Both broadcast over leading axes, as for
    :class:`ParametrizedFamily`.  The differential is expected to have
    full rank wherever it is evaluated.
    """

    n: int
    k: int
    map: Callable
    jacobian: Callable | None = None

    def __post_init__(self):
        if not 1 <= self.k <= self.n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got n={self.n}, k={self.k}")


@dataclass(frozen=True, eq=False)
class AmbientMap:
    """Diffeomorphism of R^n used to push a family forward.

    ``map(z)`` takes z of shape (..., n) and returns (..., n); the
    optional ``jacobian(z)`` returns (..., n, n).  Both broadcast over
    leading axes, as for :class:`ParametrizedFamily`.
    """

    n: int
    map: Callable
    jacobian: Callable | None = None


def _point(vec, dim: int, label: str) -> np.ndarray:
    vec = np.atleast_1d(np.asarray(vec, dtype=float))
    if vec.shape != (dim,):
        raise ValueError(f"{label} must have shape ({dim},), got {vec.shape}")
    return vec


def _evaluate(fn, args: tuple, shape: tuple, label: str, names="xy"):
    """``fn`` called once on the equally long arrays ``args``, checked to be (N,) + shape.

    A misshapen result raises EvaluationFailure, and so does a non-finite
    one, naming the first offending row, each array by its letter in
    ``names``.
    """
    count = len(args[0])
    out = np.asarray(fn(*args), dtype=float)
    if out.shape != (count,) + shape:
        raise EvaluationFailure(f"{label} returned shape {out.shape}, expected {(count,) + shape}")
    # One whole-array reduction, over the first row alone when a stride of
    # 0 repeats it; the per-row mask only when it fails.
    if not np.isfinite(out[:1] if out.strides[0] == 0 else out).all():
        bad = ~np.isfinite(out).all(axis=tuple(range(1, out.ndim)))
        i = int(np.argmax(bad))
        where = ", ".join(f"{name}={arg[i]}" for name, arg in zip(names, args))
        raise EvaluationFailure(f"{label} returned non-finite values at {where}")
    return out


def _once(fn, stack) -> np.ndarray:
    """``fn`` of a stack of matrices; of its first matrix alone, repeated,
    when a stride of 0 on the batch axis repeats that one, as
    ``np.broadcast_to`` of one matrix gives (the value is the same bit for
    bit)."""
    if len(stack) > 1 and stack.strides[0] == 0:
        return np.repeat(fn(stack[:1]), len(stack))
    return fn(stack)


def _stacked_map(fam: ParametrizedFamily, x, y) -> np.ndarray:
    """Images of the paired nodes (x[i], y[i]), shape (N, n)."""
    return _evaluate(fam.map, (x, y), (fam.n,), "map")


def evaluate_map(fam: ParametrizedFamily, x, y) -> np.ndarray:
    """Evaluate fam.map with shape and finiteness checks."""
    x = _point(x, fam.n - fam.m, "x")
    y = _point(y, fam.m, "y")
    return _stacked_map(fam, x[None], y[None])[0]


def _fd_columns(func, w0, lower, upper, out_dim):
    """Central-difference derivative columns of ``func`` at each row of ``w0``.

    ``func`` maps an (N, d) array of points to (N, out_dim); the result
    has shape (N, out_dim, d), one column per axis.  With bounds given,
    the differencing center is clamped so both points stay inside the
    open box (the derivative is then taken at the inset point, an O(h)
    perturbation that preserves second-order accuracy in the interior).
    """
    cols = np.empty((w0.shape[0], out_dim, w0.shape[1]))
    for j in range(w0.shape[1]):
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
        cols[:, :, j] = (func(wp) - func(wm)) / (wp[:, j] - wm[:, j])[:, None]
    return cols


def _jacobian_columns(fam: ParametrizedFamily, x, y) -> np.ndarray:
    """Stacked Jacobians at the paired nodes, (N, n, n)."""
    n = fam.n
    if fam.jacobian is not None:
        return _evaluate(fam.jacobian, (x, y), (n, n), "jacobian")
    k = n - fam.m
    lower = np.concatenate([fam.param_box.lower, fam.surface_box.lower])
    upper = np.concatenate([fam.param_box.upper, fam.surface_box.upper])
    func = lambda w: _stacked_map(fam, w[:, :k], w[:, k:])
    w0 = np.concatenate([x, y], axis=1)
    return _fd_columns(func, w0, lower, upper, n)


def jacobian_full(fam: ParametrizedFamily, x, y) -> np.ndarray:
    """Full (n, n) Jacobian of the parametrizing map at (x, y).

    Columns are ordered as the n-m derivatives along the parameter axes
    followed by the m derivatives along the surface axes.  Uses the
    analytic Jacobian when the family carries one, otherwise central
    finite differences with per-axis steps scaled to the coordinate
    magnitude and inset at the box boundary.
    """
    x = _point(x, fam.n - fam.m, "x")
    y = _point(y, fam.m, "y")
    return _jacobian_columns(fam, x[None], y[None])[0]


def jacobian_partial_y(fam: ParametrizedFamily, x, y) -> np.ndarray:
    """The n x m block of y-derivative columns of the map.

    Its generalized norm is the m-dimensional area-distortion factor of
    the surface through x at the point y.
    """
    return jacobian_full(fam, x, y)[:, fam.n - fam.m :]


class NodeFields(NamedTuple):
    """Per-node quantities of a family, over the nodes' leading shape S.

    ``dets`` is |det J| and ``areas`` the generalized norm of the y-block
    of J, both of shape S.  ``images`` (S, n) holds the map values and
    ``gradients`` (S) the generalized norm of a submersion's derivative
    at each image; each is None unless requested.
    """

    dets: np.ndarray
    areas: np.ndarray
    images: np.ndarray | None = None
    gradients: np.ndarray | None = None


def _paired(fn):
    """``fn(x, y)``, written for equally long 2-d arrays of rows, broadcast
    over any leading shapes: every other shape is paired into rows first,
    so a grid's values are bit for bit those of its paired nodes."""

    def wrapper(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.ndim == y.ndim == 2 and len(x) == len(y):
            return fn(x, y)
        shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        out = fn(*_pairs(x, y, shape))
        return out.reshape(shape + out.shape[1:])

    return wrapper


def _pairs(x, y, shape):
    """The nodes (x, y), broadcast to the leading ``shape``, as equally long arrays of rows."""
    xs, ys = np.empty(shape + x.shape[-1:]), np.empty(shape + y.shape[-1:])
    xs[...], ys[...] = x, y
    return xs.reshape(-1, x.shape[-1]), ys.reshape(-1, y.shape[-1])


def node_fields(
    fam: ParametrizedFamily,
    x,
    y,
    images: bool = False,
    submersion: "Submersion | None" = None,
) -> NodeFields:
    """|det J| and the y-block area factor at the nodes (x, y).

    ``x`` (..., n-m) and ``y`` (..., m) broadcast over their leading axes:
    equal shapes pair the nodes, and ``x[:, None]`` with ``y[None]`` is
    the tensor grid.  Every field has the broadcast leading shape.  The
    nodes go through in C order, in batches of at most ``_CHUNK``, so
    besides the outputs only one batch of pairs and Jacobians is held;
    the family and the submersion are called once per batch.  |det J|
    takes the closed form for n <= 3 and an LU factorization otherwise;
    the area factor is a column norm when m = 1 and the product of the
    diagonal of a stacked QR factor otherwise.  A Jacobian returned as one
    matrix broadcast over the batch (``np.broadcast_to``, stride 0 on the
    batch axis, as the catalog's linear entries return theirs) has |det J|
    and the area factor taken once from that matrix and repeated, and its
    finiteness checked on it alone; a submersion's derivative returned so
    has its gradient norm taken once too.  The values are bit for bit
    those of the matrix's copies.

    Every check of the per-point functions applies to the whole batch
    and names the first offending node by its x and y: misshapen or
    non-finite map and Jacobian values raise EvaluationFailure, and a
    |det J| that overflows raises NonFiniteIntegrand.  A small |det J|
    is returned, not judged: the routes of :mod:`surfmod.modulus` check
    it against their degeneracy floor.  With ``images`` the map values
    are returned too; with ``submersion`` they are, along with the norm
    of the submersion's derivative at each.
    """
    k = fam.n - fam.m
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape[-1:] != (k,) or y.shape[-1:] != (fam.m,):
        raise ValueError(f"need x (..., {k}) and y (..., {fam.m}), got {x.shape} and {y.shape}")
    shape = np.broadcast(x[..., 0], y[..., 0]).shape
    count = math.prod(shape)
    batch = lambda xs, ys: _paired_fields(fam, xs, ys, images, submersion)
    if count <= _CHUNK:
        flat = batch(*_pairs(x, y, shape))
    else:
        # Zero-copy broadcast views: only the current batch's pairs are materialized.
        x, y = np.broadcast_to(x, shape + (k,)), np.broadcast_to(y, shape + (fam.m,))
        flat = None
        for start in range(0, count, _CHUNK):
            index = np.unravel_index(np.arange(start, min(start + _CHUNK, count)), shape)
            part = batch(x[index], y[index])
            if flat is None:
                flat = _each(lambda f: np.empty((count,) + f.shape[1:]), part)
            for whole, values in zip(flat, part):
                if values is not None:
                    whole[start : start + len(values)] = values
    return _each(lambda f: f.reshape(shape + f.shape[1:]), flat)


def _each(fn, fields: NodeFields) -> NodeFields:
    """``fn`` applied to every field that is not None."""
    return NodeFields(*(None if f is None else fn(f) for f in fields))


def _paired_fields(fam, x, y, images, submersion) -> NodeFields:
    """:func:`node_fields` on one batch of paired nodes (x[i], y[i])."""
    k = fam.n - fam.m
    jac = _jacobian_columns(fam, x, y)
    dets = _once(_stacked_abs_det, jac)
    if not np.isfinite(dets).all():
        i = int(np.argmax(~np.isfinite(dets)))
        raise NonFiniteIntegrand(f"|det J| = {dets[i]} at x={x[i]}, y={y[i]} is not finite")
    areas = _once(stacked_norm, jac[:, :, k:])
    z = _stacked_map(fam, x, y) if images or submersion is not None else None
    gradients = None
    if submersion is not None:
        gradients = _once(stacked_norm, _submersion_columns(submersion, z))
    return NodeFields(dets, areas, z, gradients)


def _submersion_columns(sub: Submersion, z) -> np.ndarray:
    """Stacked (N, k, n) derivative of a submersion at the rows of ``z``.

    Without an analytic Jacobian, central differences with the per-axis
    step of :func:`_fd_columns` (no bounds: F is defined on all of R^n).
    """
    n, k = sub.n, sub.k
    if sub.jacobian is not None:
        return _evaluate(sub.jacobian, (z,), (k, n), "submersion jacobian", "z")
    func = lambda w: _evaluate(sub.map, (w,), (k,), "submersion", "z")
    return _fd_columns(func, z, None, None, k)


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


def _defects(fields: NodeFields, x, y) -> np.ndarray:
    """Residuals of :func:`key_relation_residual` from the fields of the
    broadcast nodes (x, y); a vanishing area factor raises
    DegenerateJacobian, naming the first such node."""
    vanishing = ~(fields.areas > 1e-300)
    if vanishing.any():
        i = np.unravel_index(int(np.argmax(vanishing)), vanishing.shape)
        x, y = (np.broadcast_to(a, vanishing.shape + a.shape[-1:])[i] for a in (x, y))
        raise DegenerateJacobian(f"surface area factor vanishes at x={x}, y={y}")
    return np.abs(fields.areas - fields.dets * fields.gradients) / fields.areas


def _key_relation_residuals(fam: ParametrizedFamily, sub: Submersion, x, y) -> np.ndarray:
    """Residuals of :func:`key_relation_residual` at the broadcast nodes (x, y)."""
    _check_pair(fam, sub)
    return _defects(node_fields(fam, x, y, submersion=sub), x, y)


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
    return float(_key_relation_residuals(fam, sub, x, y))


def compose(fam: ParametrizedFamily, outer: AmbientMap) -> ParametrizedFamily:
    """Push a family forward through a diffeomorphism of the ambient space.

    The image family keeps the same parameter and surface boxes; its map
    is the composition, and when both factors carry analytic Jacobians
    the chain rule provides one for the composition too, otherwise
    finite differences do.  Each factor is called once per batch, and a
    misshapen value of either names the batch shape, a non-finite one
    the first offending node as x, y and its image z.  The composed
    callables broadcast over leading axes like any family's.
    """
    if outer.n != fam.n:
        raise ValueError(
            f"ambient map acts on R^{outer.n} but the family lives in R^{fam.n}"
        )
    n = fam.n

    def outer_values(fn, x, y, z, shape, label):
        return _evaluate(lambda x, y, z: fn(z), (x, y, z), shape, label, "xyz")

    def composed(x, y):
        z = _stacked_map(fam, x, y)
        return outer_values(outer.map, x, y, z, (n,), "ambient map")

    def jac(x, y):
        z = _stacked_map(fam, x, y)
        outer_jac = outer_values(outer.jacobian, x, y, z, (n, n), "ambient jacobian")
        inner_jac = _jacobian_columns(fam, x, y)
        # Two matrices broadcast over a batch of several nodes have one
        # product, kept broadcast so that node_fields takes its fields once.
        if len(x) > 1 and outer_jac.strides[0] == 0 and inner_jac.strides[0] == 0:
            return np.broadcast_to(outer_jac[:1] @ inner_jac[:1], outer_jac.shape)
        return outer_jac @ inner_jac

    analytic = fam.jacobian is not None and outer.jacobian is not None
    return replace(fam, map=_paired(composed), jacobian=_paired(jac) if analytic else None)

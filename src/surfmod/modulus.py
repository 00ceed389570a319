"""p-modulus of a surface family and its extremal density.

Everything here rests on one reduction.  Write the full Jacobian
determinant of the parametrizing map as J and the area factor of the
y-block as A.  The weight of one surface is

    l(x) = integral over V of (A / J)^q * J dy,

with q the conjugate exponent of p, and the p-modulus of the family is
the integral over U of l(x)^(1-p) dx.  The infimum over admissible
densities is attained by

    density(x, y) = (1 / l(x)) * (A / J)^(q-1),

expressed here in parameter coordinates; composing with the inverse map
gives the ambient form.  Admissibility means every surface integral of
the density is at least one, and the Hoelder inequality shows no
admissible competitor can have smaller p-energy.

An alternative route starts from a submersion whose level sets are the
surfaces; both are implemented and cross-checked.

The surface weight, the density, the level-set weight and the outer
integral are formed from logarithms where a power leaves the normal range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import family as _family
from .errors import (
    DegenerateJacobian,
    EvaluationFailure,
    InconsistentSubmersion,
    InversionFailure,
    NonFiniteIntegrand,
)
from .family import (
    NodeFields,
    ParametrizedFamily,
    Submersion,
    _check_pair,
    _count,
    _defects,
    _pairs,
    _point,
    _stacked_map,
    evaluate_map,
    jacobian_full,
    key_relation_residual,  # noqa: F401 -- traced here by perfbench/spans.py
    node_fields,
    submersion_jacobian,  # noqa: F401 -- traced here by perfbench/spans.py
)
from .linalg import generalized_norm  # noqa: F401 -- traced here, as above
from .quadrature import QuadratureScheme

__all__ = [
    "ModulusReport",
    "ExtremalDensity",
    "conjugate_exponent",
    "jacobian_floor",
    "modulus_p",
    "extremal_density",
    "admissibility_check",
    "coarea_check",
    "submersion_modulus",
    "extremality_probe",
]

# Exponents this close to 1 make the conjugate exponent blow up; reject them.
_MIN_P_GAP = 1e-9

# Relative factor applied to the median |det J| of a grid; nodes at or
# below the resulting floor are treated as degenerate.
_DEGENERACY_FACTOR = 1e-12

# Probe points per axis of jacobian_floor's grid.
_FLOOR_PROBES = 5

# l(x) values below this are numerically meaningless underflow.
_L_FLOOR = 1e-300

# The smallest normal float.
_TINY = float(np.finfo(float).tiny)

# Largest relative residual of the key relation |A| = |det J| |DF| that
# submersion_modulus accepts at a node.
_RESIDUAL_TOL = 1e-5

# Largest wave amplitude of an extremality_probe competitor, as a fraction
# of the density's minimum: below 1, so every competitor stays positive.
_AMPLITUDE = 0.3


def conjugate_exponent(p: float) -> float:
    """Conjugate exponent q with 1/p + 1/q = 1.  Requires p > 1."""
    p = float(p)
    if not np.isfinite(p) or p <= 1.0 + _MIN_P_GAP:
        raise ValueError(f"exponent p must exceed 1, got p={p}")
    return p / (p - 1.0)


def _median(values) -> float:
    """``np.median`` of ``values``, from one ``np.partition`` of a copy,
    which is freed on return.

    Of an even count, the lower middle value is the largest left of the
    upper one, read with ``max`` instead of a second partition point,
    which costs numpy a pass several times slower.
    """
    flat = values.ravel()
    half = flat.size // 2
    part = np.partition(flat, half)
    if flat.size % 2:
        return float(part[half])
    return float((part[:half].max() + part[half]) / 2)


def _floor_of(dets) -> float:
    """The degeneracy floor set by a grid's |det J|: 1e-12 times their median."""
    return _DEGENERACY_FACTOR * _median(dets)


def jacobian_floor(fam: ParametrizedFamily) -> float:
    """Degeneracy threshold for |det J| on this family, from a probe grid.

    The median of |det J| over a coarse interior grid, 5 points per
    axis, sets the scale; nodes whose determinant is at or below a tiny
    fraction of it are reported as degenerate rather than silently
    amplified by the q-power in the integrand.  :class:`ExtremalDensity`
    takes its floor here, since it evaluates single points and partial
    grids, and checks it on the fields of every grid it evaluates; the
    whole-grid routes (:func:`modulus_p`, :func:`submersion_modulus`,
    :func:`extremality_probe`) take theirs from the grid they integrate
    instead.  Both floors are checked in this module, by one helper,
    after :func:`~surfmod.family.node_fields` has evaluated the grid.
    """
    x, y = fam.param_box.grid(_FLOOR_PROBES), fam.surface_box.grid(_FLOOR_PROBES)
    return _floor_of(node_fields(fam, x[:, None], y[None]).dets)


def _check_inside(rows, box, label):
    """Raise ValueError at the first of the (N, d) ``rows`` outside the open ``box``."""
    lower, upper = box.lower.tolist(), box.upper.tolist()
    for row in rows.tolist():
        if not all(lo < v < hi for v, lo, hi in zip(row, lower, upper)):
            bounds = " x ".join(f"({lo!r}, {hi!r})" for lo, hi in zip(lower, upper))
            raise ValueError(f"{label}={np.array(row)} lies outside the open box {bounds}")


def _rules(fam, quad):
    """Outer and inner rules of ``quad``: x nodes and weights, then y's."""
    return (*quad.box_rule(fam.param_box), *quad.box_rule(fam.surface_box))


def _raise_first(bad, error, message):
    """Raise ``error(message(*index))`` at the first True entry of ``bad``, if any."""
    if bad.any():
        raise error(message(*np.unravel_index(int(np.argmax(bad)), bad.shape)))


def _check_floor(dets, floor, x_nodes, y_nodes):
    """Raise DegenerateJacobian at the first node, in C order, of the grid
    of ``x_nodes`` and ``y_nodes`` whose |det J| is at or below ``floor``."""
    _raise_first(
        dets <= floor,
        DegenerateJacobian,
        lambda i, j: f"|det J| = {dets[i, j]:.3e} at x={x_nodes[i]}, y={y_nodes[j]} is below "
        f"the degeneracy floor {floor:.3e}",
    )


def _grid_fields(fam, x_nodes, y_nodes, submersion=None) -> NodeFields:
    """Fields of the tensor grid of ``x_nodes`` and ``y_nodes``, with the
    degeneracy floor taken from that grid.

    The grid is evaluated once; then the first node in C order whose
    |det J| is at or below ``_DEGENERACY_FACTOR`` times the median
    |det J| over the grid raises DegenerateJacobian.  Any error of the
    evaluation itself, at any node, comes first.  The median is at most
    the largest |det J|, so a grid whose smallest is above that factor
    times its largest has no such node, and skips the median.
    """
    fields = node_fields(fam, x_nodes[:, None], y_nodes[None], submersion=submersion)
    dets = fields.dets
    if not dets.min() > _DEGENERACY_FACTOR * dets.max():
        _check_floor(dets, _floor_of(dets), x_nodes, y_nodes)
    return fields


def _surface_weights(fam, q, x_nodes, y_nodes, y_weights):
    """Surface weights l(x) at every row of ``x_nodes``, with the grid fields behind them."""
    fields = _grid_fields(fam, x_nodes, y_nodes)
    return _weights_from_fields(fields, q, x_nodes, y_nodes, y_weights), fields


def _power(num, den, e, factor=None, divisor=None):
    """(num / den)^e elementwise, times ``factor`` or over ``divisor``.

    Entries whose power is not a finite normal float (0, subnormal or
    inf), or for e > 0 whose ratio is subnormal, are formed from
    logarithms instead, so an entry under- or overflows only where the
    result does.  The arguments broadcast to one shape, and the work is
    done in place in one array of it: a grid-sized temporary is the
    larger part of modulus_p's memory.
    """
    # For 0 < e < 1 a subnormal ratio, which has lost digits, can have a
    # normal power; it is the one below _TINY^e.
    low = _TINY ** min(e, 1.0) if e > 0 else _TINY
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = num / den
        values **= e
        redo = ~(values >= low) | (values == np.inf)
        if factor is not None:
            values *= factor
        if divisor is not None:
            values /= divisor
        if redo.any():

            def log(array):
                return np.log(np.broadcast_to(array, redo.shape)[redo])

            logs = e * (log(num) - log(den))
            if factor is not None:
                logs += log(factor)
            if divisor is not None:
                logs -= log(divisor)
            values[redo] = np.exp(logs)
    return values


def _weights_from_fields(fields, q, x_nodes, y_nodes, y_weights):
    """Surface weights l(x) from the fields of the grid of ``x_nodes`` and ``y_nodes``."""
    values = _power(fields.areas, fields.dets, q, factor=fields.dets)
    l_vals = values @ y_weights
    if not np.isfinite(l_vals).all():
        _raise_first(
            ~np.isfinite(values),
            NonFiniteIntegrand,
            lambda i, j: f"surface-weight integrand is non-finite at x={x_nodes[i]}, y={y_nodes[j]}",
        )
    return _check_weights(l_vals, x_nodes, "surface weight l(x)")


def _check_weights(l_vals, x_nodes, label):
    _raise_first(
        ~(np.isfinite(l_vals) & (l_vals >= _L_FLOOR)),
        NonFiniteIntegrand,
        lambda i: f"{label} = {float(l_vals[i])!r} at x={x_nodes[i]} is unusable",
    )
    return l_vals


def _density(fields, q, l_vals, x_nodes, y_nodes):
    """Extremal density (A / J)^(q-1) / l(x) on a grid of node fields."""
    values = _power(fields.areas, fields.dets, q - 1.0, divisor=l_vals[:, None])
    _raise_first(
        ~np.isfinite(values),
        NonFiniteIntegrand,
        lambda i, j: f"density value overflows at x={x_nodes[i]}, y={y_nodes[j]}",
    )
    return values


def _outer_integral(x_weights, l_vals, p) -> float:
    """The modulus: integral of l(x)^(1-p) over the outer nodes."""
    modulus = float(_power(l_vals, 1.0, 1.0 - p, factor=x_weights).sum())
    if not np.isfinite(modulus):
        raise NonFiniteIntegrand("modulus integral is non-finite")
    return modulus


def _report(p, q, x_nodes, x_weights, l_vals, dets) -> "ModulusReport":
    """Integrate l(x)^(1-p) over the outer nodes into a ModulusReport."""
    return ModulusReport(
        p=float(p),
        q=float(q),
        modulus=_outer_integral(x_weights, l_vals, p),
        l_samples=tuple(zip(map(tuple, x_nodes.tolist()), l_vals.tolist())),
        min_jacobian=float(dets.min()),
        node_count=dets.size,
    )


@dataclass(frozen=True)
class ModulusReport:
    """Result of a modulus computation.

    ``l_samples`` holds one (parameter point, surface weight) pair per
    outer quadrature node, ``min_jacobian`` the smallest |det J| visited,
    and ``node_count`` the total number of integrand evaluations.
    """

    p: float
    q: float
    modulus: float
    l_samples: tuple
    min_jacobian: float
    node_count: int

    def __post_init__(self):
        if abs(1.0 / self.p + 1.0 / self.q - 1.0) > 1e-12:
            raise ValueError(f"p={self.p} and q={self.q} are not conjugate")
        if not all(l > 0.0 for _, l in self.l_samples):
            raise ValueError("every sampled surface weight must be positive")


def modulus_p(
    fam: ParametrizedFamily,
    p: float,
    quad: QuadratureScheme,
) -> ModulusReport:
    """p-modulus of the family by the closed-form reduction.

    Integrates l(x)^(1-p) over the parameter box, where l is the surface
    weight integrated with the same quadrature scheme on the surface box;
    ``extremal_density(fam, p, quad).l_value(x)`` reads it at one point.
    The grid is evaluated once; a node whose |det J| is at or below 1e-12
    times the median |det J| over that grid raises DegenerateJacobian,
    naming the first such node.

    Parameters
    ----------
    fam : ParametrizedFamily
    p : float
        Exponent, p > 1.
    quad : QuadratureScheme
        Used for both the outer (parameter) and inner (surface) integrals.
    """
    q = conjugate_exponent(p)
    x_nodes, x_weights, y_nodes, y_weights = _rules(fam, quad)
    l_vals, fields = _surface_weights(fam, q, x_nodes, y_nodes, y_weights)
    return _report(p, q, x_nodes, x_weights, l_vals, fields.dets)


class ExtremalDensity:
    """Minimizing density of the p-energy among admissible densities.

    Instances are built by :func:`extremal_density`.  The density can be
    evaluated in parameter coordinates through :meth:`evaluate_param` or
    at ambient points through :meth:`evaluate_ambient`; the latter uses a
    user-supplied inverse of the parametrizing map when one is given and
    otherwise falls back to damped Newton iteration seeded from a coarse
    forward grid.

    The degeneracy floor is taken once, when built, from
    :func:`jacobian_floor`.  Every grid the density evaluates is checked
    against it after evaluation: the first node in C order whose |det J|
    is at or below it raises DegenerateJacobian, as on the whole-grid
    routes.  A parameter point outside the open boxes U x V raises
    ValueError, naming the point and the box.
    """

    def __init__(
        self,
        family: ParametrizedFamily,
        p: float,
        quad: QuadratureScheme,
        inverse=None,
    ):
        self.family = family
        self.p = float(p)
        self.q = conjugate_exponent(p)
        self.inverse = inverse
        self._floor = jacobian_floor(family)
        self._inner_nodes, self._inner_weights = quad.box_rule(family.surface_box)
        self._seed_params = None
        self._seed_images = None
        self._diameter = None

    # -- surface weight ------------------------------------------------

    def l_value(self, x) -> float:
        """Surface weight l(x) of the surface through parameter x."""
        fam = self.family
        x = _point(x, fam.n - fam.m, "x")
        _check_inside(x[None], fam.param_box, "x")
        nodes, weights = self._inner_nodes, self._inner_weights
        fields = node_fields(fam, x[None, None], nodes[None])
        _check_floor(fields.dets, self._floor, x[None], nodes)
        return float(_weights_from_fields(fields, self.q, x[None], nodes, weights)[0])

    # -- evaluation ----------------------------------------------------

    def evaluate_param(self, x, y) -> float:
        """Density value at the surface point with parameter coordinates (x, y)."""
        fam = self.family
        x = _point(x, fam.n - fam.m, "x")
        y = _point(y, fam.m, "y")
        _check_inside(x[None], fam.param_box, "x")
        _check_inside(y[None], fam.surface_box, "y")
        return float(self._evaluate_grid(x[None], y[None])[0][0, 0])

    def _evaluate_grid(self, x_nodes, y_nodes):
        """Density on the tensor grid of ``x_nodes`` and ``y_nodes``, as a
        (len(x_nodes), len(y_nodes)) array, with the grid fields behind it.

        One kernel call covers ``x_nodes`` times ``y_nodes`` followed by
        the inner rule, whose columns give l(x); when ``y_nodes`` is the
        inner rule itself, its grid serves both.  The whole grid is
        evaluated before its first node at or below the probe floor is
        named.
        """
        fam, nodes, weights = self.family, self._inner_nodes, self._inner_weights
        same = np.array_equal(y_nodes, nodes)
        y_grid = nodes if same else np.concatenate([y_nodes, nodes])
        grid = node_fields(fam, x_nodes[:, None], y_grid[None])
        _check_floor(grid.dets, self._floor, x_nodes, y_grid)
        if same:
            fields = inner = grid
        else:
            count = len(y_nodes)
            fields = NodeFields(grid.dets[:, :count], grid.areas[:, :count])
            inner = NodeFields(grid.dets[:, count:], grid.areas[:, count:])
        l_vals = _weights_from_fields(inner, self.q, x_nodes, nodes, weights)
        return _density(fields, self.q, l_vals, x_nodes, y_nodes), fields

    def evaluate_ambient(self, z) -> float:
        """Density value at an ambient point of the swept region."""
        z = _point(z, self.family.n, "z")
        if self.inverse is not None:
            x, y = self.inverse(z)
        else:
            x, y = self._invert(z)
        return self.evaluate_param(x, y)

    # -- Newton inversion ----------------------------------------------

    def _ensure_seeds(self):
        if self._seed_params is not None:
            return
        fam = self.family
        per_axis = 8
        x, y = fam.param_box.grid(per_axis), fam.surface_box.grid(per_axis)
        x, y = _pairs(x[:, None], y[None], (len(x), len(y)))
        self._seed_params = np.concatenate([x, y], axis=1)
        self._seed_images = _stacked_map(fam, x, y)
        span = self._seed_images.max(axis=0) - self._seed_images.min(axis=0)
        self._diameter = float(np.hypot.reduce(span))

    def _invert(self, z):
        self._ensure_seeds()
        fam = self.family
        split = fam.n - fam.m
        lower = np.concatenate([fam.param_box.lower, fam.surface_box.lower])
        upper = np.concatenate([fam.param_box.upper, fam.surface_box.upper])
        inset = 1e-9 * (upper - lower)
        tol = 1e-10 * self._diameter

        # Distances and norms by hypot, which does not overflow for images
        # beyond about 1e154 as squares do.
        start = int(np.argmin(np.hypot.reduce(self._seed_images - z, axis=1)))
        w = self._seed_params[start].copy()
        residual = evaluate_map(fam, w[:split], w[split:]) - z
        norm = float(np.hypot.reduce(residual))
        for _ in range(50):
            if norm <= tol:
                return w[:split].copy(), w[split:].copy()
            jac = jacobian_full(fam, w[:split], w[split:])
            try:
                step = np.linalg.solve(jac, -residual)
            except np.linalg.LinAlgError as exc:
                raise InversionFailure(
                    f"Jacobian is singular during inversion at {w}"
                ) from exc
            scale = 1.0
            for _ in range(30):
                trial = np.clip(w + scale * step, lower + inset, upper - inset)
                trial_residual = evaluate_map(fam, trial[:split], trial[split:]) - z
                trial_norm = float(np.hypot.reduce(trial_residual))
                if trial_norm < norm:
                    w, residual, norm = trial, trial_residual, trial_norm
                    break
                scale *= 0.5
            else:
                raise InversionFailure(
                    f"damped Newton stalled at residual {norm:.3e} for z={z}"
                )
        if norm <= tol:
            return w[:split].copy(), w[split:].copy()
        raise InversionFailure(
            f"no convergence after 50 Newton iterations for z={z} (residual {norm:.3e})"
        )


def extremal_density(
    fam: ParametrizedFamily,
    p: float,
    quad: QuadratureScheme,
    inverse=None,
) -> ExtremalDensity:
    """Construct the extremal density of the family for exponent p.

    ``inverse``, when given, must map an ambient point z to the pair
    (x, y) of parameter coordinates with map(x, y) = z.
    """
    return ExtremalDensity(fam, p, quad, inverse=inverse)


def admissibility_check(
    fam: ParametrizedFamily,
    density: ExtremalDensity,
    quad: QuadratureScheme,
    x_samples,
) -> list:
    """Surface integrals of a density over the surfaces through ``x_samples``.

    ``x_samples`` has shape (N, n - m), one parameter point per row;
    any other shape raises ValueError, and so does a row outside the
    open parameter box of ``fam`` or of the density's family.  Each
    returned entry is (x, integral); admissibility of the extremal
    density shows up as integrals equal to one up to quadrature error.
    """
    k = fam.n - fam.m
    x_samples = np.asarray(x_samples, dtype=float)
    if x_samples.ndim != 2 or x_samples.shape[1] != k:
        raise ValueError(f"x_samples must have shape (N, {k}), got {x_samples.shape}")
    for box in (fam.param_box, density.family.param_box):
        _check_inside(x_samples, box, "x")
    nodes, weights = quad.box_rule(fam.surface_box)
    values, fields = density._evaluate_grid(x_samples, nodes)
    if density.family is not fam:
        fields = node_fields(fam, x_samples[:, None], nodes[None])
    integrals = (values * fields.areas) @ weights
    return [(x.copy(), float(total)) for x, total in zip(x_samples, integrals)]


def coarea_check(
    fam: ParametrizedFamily,
    sub: Submersion,
    integrand,
    quad: QuadratureScheme,
) -> tuple[float, float]:
    """Both sides of the change-of-variables identity for a scalar integrand g.

    The left side integrates g times the submersion's area factor over
    the swept region (pulled back through the map); the right side first
    integrates g over each surface and then over the parameter box.  For
    a consistent (family, submersion) pair the two agree up to
    quadrature and rounding error.  ``integrand`` is called once per
    node with the image z, shape (n,); a value that is not a finite
    real number raises EvaluationFailure, naming the first such node's z.
    """
    _check_pair(fam, sub)
    x_nodes, x_weights, y_nodes, y_weights = _rules(fam, quad)
    fields = node_fields(fam, x_nodes[:, None], y_nodes[None], submersion=sub)
    weighted = np.outer(x_weights, y_weights)
    values = _integrand_values(integrand, fields.images.reshape(-1, fam.n))
    weighted = weighted * values.reshape(weighted.shape)
    lhs = weighted * fields.gradients * fields.dets
    return float(lhs.sum()), float((weighted * fields.areas).sum())


def _integrand_values(integrand, images) -> np.ndarray:
    """The scalar ``integrand`` at each row of ``images``; a value that is
    not a finite real number raises EvaluationFailure at the first such row."""
    raw = [integrand(z) for z in images]
    real = lambda v: np.shape(v) == () and np.asarray(v).dtype.kind in "biuf" and np.isfinite(v)
    try:
        values = np.asarray(raw)
    except ValueError:  # values of unequal shapes
        values = np.empty(0)
    if not (values.shape == (len(raw),) and values.dtype.kind in "biuf" and np.isfinite(values).all()):
        i = next(i for i, value in enumerate(raw) if not real(value))
        raise EvaluationFailure(f"integrand returned {raw[i]!r} at z={images[i]}, not a finite real number")
    return values.astype(float, copy=False)


def submersion_modulus(
    sub: Submersion,
    levelset_param: ParametrizedFamily,
    p: float,
    quad: QuadratureScheme,
) -> ModulusReport:
    """p-modulus computed through a submersion describing the level sets.

    The surface weight is obtained by integrating the (q-1) power of the
    submersion's area factor over each level set.  This is the one place
    where a submersion is checked against the family it stands for: the
    key relation |A| = |det J| |DF| between the area factor A of the
    surfaces, the Jacobian J of the family and the derivative DF of the
    submersion is checked on the fields of the quadrature grid, at every
    node.  A vanishing area factor raises DegenerateJacobian, and a
    relative residual above 1e-5 raises InconsistentSubmersion, naming
    the first such node's image in C order.  A rank-deficient DF has
    residual 1, so it raises there too.  A |det J| at or below the
    degeneracy floor, 1e-12 times the median |det J| over the same grid,
    raises DegenerateJacobian before either.
    """
    q = conjugate_exponent(p)
    fam = levelset_param
    _check_pair(fam, sub)
    x_nodes, x_weights, y_nodes, y_weights = _rules(fam, quad)
    fields = _grid_fields(fam, x_nodes, y_nodes, submersion=sub)
    residuals = _defects(fields, x_nodes[:, None], y_nodes[None])
    _raise_first(
        ~(residuals <= _RESIDUAL_TOL),
        InconsistentSubmersion,
        lambda i, j: f"submersion_modulus: area-factor residual {residuals[i, j]:.3e} at "
        f"z={fields.images[i, j]} exceeds {_RESIDUAL_TOL:.1e}; the submersion's level "
        "sets do not match the family",
    )
    level = _power(fields.gradients, 1.0, q - 1.0, factor=fields.areas) @ y_weights
    _check_weights(level, x_nodes, "level-set weight")
    return _report(p, q, x_nodes, x_weights, level, fields.dets)


def _waves(nodes, box, orders, phases):
    """Product over the axes of cos(2 pi order t + phase), t the nodes'
    coordinates normalized to ``box``: one row per node, one column per
    row of ``orders`` and ``phases``."""
    t = (nodes - box.lower) / box.widths
    waves, arg = np.ones((len(t), len(orders))), np.empty((len(t), len(orders)))
    for j in range(box.dim):
        np.multiply(2.0 * np.pi * orders[:, j], t[:, j, None], out=arg)
        arg += phases[:, j]
        waves *= np.cos(arg, out=arg)
    return waves


def _normal(values) -> np.ndarray:
    """Where ``values`` are finite and at least the smallest normal float."""
    return (values >= _TINY) & (values < np.inf)


def _log_energies(values, smallest, p, dets, x_weights, y_weights) -> np.ndarray:
    """One p-energy per trial of a batch: the sum over its nodes of
    (values / smallest)^p |det J| w_x w_y, from logarithms.

    ``values`` is (trials, rows, ny), ``smallest`` (trials,), ``dets``
    (rows, ny).  Every factor enters by its own logarithm, and each sum
    is scaled by its largest term, so an energy under- or overflows only
    where it is not representable: no product of two factors is formed.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = p * (np.log(values) - np.log(smallest)[:, None, None])
        logs += np.log(dets) + np.log(x_weights)[:, None] + np.log(y_weights)
        logs = logs.reshape(len(logs), -1)
        top = logs.max(axis=1)
        return np.exp(top + np.log(np.exp(logs - top[:, None]).sum(axis=1)))


def extremality_probe(
    fam: ParametrizedFamily,
    p: float,
    quad: QuadratureScheme,
    trials: int = 50,
    seed: int = 0,
) -> float:
    """Worst p-energy gap of random admissible competitors.

    Each trial perturbs the extremal density by a product of low-order
    cosine waves in the parameter coordinates, with amplitude capped at
    0.3 times the density's minimum over the quadrature nodes (so
    competitors stay positive), then rescales by the smallest surface
    integral to restore admissibility and evaluates the p-energy by
    pullback.  Returns min over trials of (competitor energy - modulus);
    extremality of the density makes this nonnegative up to rounding.
    The density and the modulus come from one evaluation of the
    quadrature grid, which takes its degeneracy floor from its own median
    |det J|, as :func:`modulus_p` does.

    Every trial's wave orders, phases and amplitude come from three bulk
    draws of ``default_rng(seed)``, (trials, n), (trials, n) and
    (trials,), so one seed always gives the same competitors.  Their
    surface integrals follow from the density's own without forming the
    competitors.  The competitors are formed, raised to the power p and
    reduced in batches of at most ``family._CHUNK`` grid values (one row
    of the grid when a row is longer) in one reused buffer; a batch's
    trials get their waves and rescale together, so memory beyond
    ``modulus_p``'s is that buffer and a few arrays of one value per
    node of one axis and trial of the batch.  A batch whose energies, or
    their sums over y, leave the normal range is formed again from
    logarithms, in a few arrays of its size (:func:`_log_energies`), so
    a competitor whose rho^p overflows while its energy does not still
    has that energy.

    ``trials`` must be an integer of at least 1, else ValueError; a
    competitor whose energy is not finite and positive raises
    NonFiniteIntegrand, naming the first such trial.
    """
    trials = _count(trials, "trials")
    q = conjugate_exponent(p)
    x_nodes, x_weights, y_nodes, y_weights = _rules(fam, quad)
    l_vals, fields = _surface_weights(fam, q, x_nodes, y_nodes, y_weights)
    modulus = _outer_integral(x_weights, l_vals, p)
    density = _density(fields, q, l_vals, x_nodes, y_nodes)

    k = fam.n - fam.m
    rng = np.random.default_rng(seed)
    orders = rng.integers(1, 4, size=(trials, fam.n))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(trials, fam.n))
    amps = _AMPLITUDE * float(density.min()) * rng.uniform(0.1, 1.0, size=trials)
    own_integrals = np.einsum("ij,ij,j->i", density, fields.areas, y_weights)

    # Batches of `group` trials times `rows` x rows, at most _CHUNK values.
    nx, ny = density.shape
    rows = max(1, min(nx, _family._CHUNK // ny))
    group = min(trials, max(1, _family._CHUNK // (rows * ny)))
    buffer = np.empty(group * rows * ny)
    energies = np.zeros(trials)
    with np.errstate(over="ignore"):
        for t in range(0, trials, group):
            span = slice(t, t + group)
            # One column per trial; wave_x carries the trial's amplitude.
            wave_x = _waves(x_nodes, fam.param_box, orders[span, :k], phases[span, :k])
            wave_x *= amps[span]
            wave_y = _waves(y_nodes, fam.surface_box, orders[span, k:], phases[span, k:])
            # Surface integrals of density + wave_x wave_y, whose smallest rescales.
            shifts = wave_x * (fields.areas @ (wave_y * y_weights[:, None]))
            smallest = (own_integrals[:, None] + shifts).min(axis=0)
            for i in range(0, nx, rows):
                block = slice(i, i + rows)
                wx = wave_x[block].T
                values = buffer[: wx.size * ny].reshape(wx.shape + (ny,))
                np.multiply(wx[:, :, None], wave_y.T[:, None], out=values)
                values += density[block]
                values /= smallest[:, None, None]
                values **= p
                values *= fields.dets[block]
                inner = values @ y_weights
                batch = inner @ x_weights[block]
                if not (_normal(inner).all() and _normal(batch).all()):
                    np.multiply(wx[:, :, None], wave_y.T[:, None], out=values)
                    values += density[block]
                    batch = _log_energies(
                        values, smallest, p, fields.dets[block], x_weights[block], y_weights
                    )
                energies[span] += batch
    _raise_first(
        ~(np.isfinite(energies) & (energies > 0.0)),
        NonFiniteIntegrand,
        lambda i: f"p-energy of competitor {i} is {float(energies[i])!r}",
    )
    return float(energies.min() - modulus)

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateJacobian, InversionFailure, NonFiniteIntegrand
from .family import (
    NodeFields,
    ParametrizedFamily,
    Submersion,
    _check_pair,
    _probe_key_relation,
    _stacked_map,
    _tensor_pairs,
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

# Relative factor applied to the median |det J| of a probe grid; nodes
# below the resulting floor are treated as degenerate.
_DEGENERACY_FACTOR = 1e-12

# Probe points per axis of that grid.
_FLOOR_PROBES = 5

# l(x) values below this are numerically meaningless underflow.
_L_FLOOR = 1e-300


def conjugate_exponent(p: float) -> float:
    """Conjugate exponent q with 1/p + 1/q = 1.  Requires p > 1."""
    p = float(p)
    if not np.isfinite(p) or p <= 1.0 + _MIN_P_GAP:
        raise ValueError(f"exponent p must exceed 1, got p={p}")
    return p / (p - 1.0)


def jacobian_floor(fam: ParametrizedFamily) -> float:
    """Degeneracy threshold for |det J| on this family.

    The median of |det J| over a coarse interior grid sets the scale;
    quadrature nodes whose determinant falls below a tiny fraction of it
    are reported as degenerate rather than silently amplified by the
    q-power in the integrand.
    """
    x, y = fam.param_box.grid(_FLOOR_PROBES), fam.surface_box.grid(_FLOOR_PROBES)
    return _DEGENERACY_FACTOR * float(np.median(_grid_fields(fam, x, y).dets))


def _rules(fam, quad):
    """Outer and inner rules of ``quad``: x nodes and weights, then y's."""
    return (*quad.box_rule(fam.param_box), *quad.box_rule(fam.surface_box))


def _grid_fields(fam, x_nodes, y_nodes, floor=None, submersion=None) -> NodeFields:
    """:func:`node_fields` on the tensor grid of ``x_nodes`` and ``y_nodes``.

    One kernel call covers the whole grid; every field comes back with
    leading shape (len(x_nodes), len(y_nodes)).
    """
    fields = node_fields(fam, *_tensor_pairs(x_nodes, y_nodes), floor=floor, submersion=submersion)
    shape = (len(x_nodes), len(y_nodes))
    return NodeFields(*(None if f is None else f.reshape(shape + f.shape[1:]) for f in fields))


def _raise_first(bad, error, message):
    """Raise ``error(message(*index))`` at the first True entry of ``bad``, if any."""
    if bad.any():
        raise error(message(*np.unravel_index(int(np.argmax(bad)), bad.shape)))


def _surface_weights(fam, q, x_nodes, y_nodes, y_weights, floor):
    """Surface weights l(x) at every row of ``x_nodes``, with the grid fields behind them."""
    fields = _grid_fields(fam, x_nodes, y_nodes, floor=floor)
    with np.errstate(over="ignore"):
        values = (fields.areas / fields.dets) ** q * fields.dets
    _raise_first(
        ~np.isfinite(values),
        NonFiniteIntegrand,
        lambda i, j: f"surface-weight integrand is non-finite at x={x_nodes[i]}, y={y_nodes[j]}",
    )
    return _check_weights(values @ y_weights, x_nodes, "surface weight l(x)"), fields


def _check_weights(l_vals, x_nodes, label):
    _raise_first(
        ~(np.isfinite(l_vals) & (l_vals >= _L_FLOOR)),
        NonFiniteIntegrand,
        lambda i: f"{label} = {float(l_vals[i])!r} at x={x_nodes[i]} is unusable",
    )
    return l_vals


def _density(fields, q, l_vals, x_nodes, y_nodes):
    """Extremal density (A / J)^(q-1) / l(x) on a grid of node fields."""
    with np.errstate(over="ignore"):
        values = (fields.areas / fields.dets) ** (q - 1.0) / l_vals[:, None]
    _raise_first(
        ~np.isfinite(values),
        NonFiniteIntegrand,
        lambda i, j: f"density value overflows at x={x_nodes[i]}, y={y_nodes[j]}",
    )
    return values


def _outer_integral(x_weights, l_vals, p) -> float:
    """The modulus: integral of l(x)^(1-p) over the outer nodes."""
    with np.errstate(over="ignore"):
        modulus = float(x_weights @ l_vals ** (1.0 - p))
    if not np.isfinite(modulus):
        raise NonFiniteIntegrand("modulus integral is non-finite")
    return modulus


def _report(p, q, x_nodes, x_weights, l_vals, dets) -> "ModulusReport":
    """Integrate l(x)^(1-p) over the outer nodes into a ModulusReport."""
    return ModulusReport(
        p=float(p),
        q=float(q),
        modulus=_outer_integral(x_weights, l_vals, p),
        l_samples=tuple(
            (tuple(float(c) for c in x), float(l_val)) for x, l_val in zip(x_nodes, l_vals)
        ),
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

    Parameters
    ----------
    fam : ParametrizedFamily
    p : float
        Exponent, p > 1.
    quad : QuadratureScheme
        Used for both the outer (parameter) and inner (surface) integrals.
    """
    q = conjugate_exponent(p)
    floor = jacobian_floor(fam)
    x_nodes, x_weights, y_nodes, y_weights = _rules(fam, quad)
    l_vals, fields = _surface_weights(fam, q, x_nodes, y_nodes, y_weights, floor)
    return _report(p, q, x_nodes, x_weights, l_vals, fields.dets)


class ExtremalDensity:
    """Minimizing density of the p-energy among admissible densities.

    Instances are built by :func:`extremal_density`.  The density can be
    evaluated in parameter coordinates through :meth:`evaluate_param` or
    at ambient points through :meth:`evaluate_ambient`; the latter uses a
    user-supplied inverse of the parametrizing map when one is given and
    otherwise falls back to damped Newton iteration seeded from a coarse
    forward grid.
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

    def _l_values(self, x_nodes):
        """Surface weights at the rows of ``x_nodes``, in one kernel call."""
        nodes, weights = self._inner_nodes, self._inner_weights
        return _surface_weights(self.family, self.q, x_nodes, nodes, weights, self._floor)[0]

    def l_value(self, x) -> float:
        """Surface weight l(x) of the surface through parameter x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(self._l_values(x[None])[0])

    # -- evaluation ----------------------------------------------------

    def evaluate_param(self, x, y) -> float:
        """Density value at the surface point with parameter coordinates (x, y)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return float(self._evaluate_grid(x[None], y[None])[0][0, 0])

    def _evaluate_grid(self, x_nodes, y_nodes):
        """Density on the tensor grid of ``x_nodes`` and ``y_nodes``, as a
        (len(x_nodes), len(y_nodes)) array, with the grid fields behind it."""
        fields = _grid_fields(self.family, x_nodes, y_nodes, floor=self._floor)
        values = _density(fields, self.q, self._l_values(x_nodes), x_nodes, y_nodes)
        return values, fields

    def evaluate_ambient(self, z) -> float:
        """Density value at an ambient point of the swept region."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
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
        x, y = _tensor_pairs(fam.param_box.grid(per_axis), fam.surface_box.grid(per_axis))
        self._seed_params = np.concatenate([x, y], axis=1)
        self._seed_images = _stacked_map(fam, x, y)
        span = self._seed_images.max(axis=0) - self._seed_images.min(axis=0)
        self._diameter = float(np.linalg.norm(span))

    def _invert(self, z):
        self._ensure_seeds()
        fam = self.family
        split = fam.n - fam.m
        lower = np.concatenate([fam.param_box.lower, fam.surface_box.lower])
        upper = np.concatenate([fam.param_box.upper, fam.surface_box.upper])
        inset = 1e-9 * (upper - lower)
        tol = 1e-10 * self._diameter

        start = int(np.argmin(np.sum((self._seed_images - z) ** 2, axis=1)))
        w = self._seed_params[start].copy()
        residual = evaluate_map(fam, w[:split], w[split:]) - z
        norm = float(np.linalg.norm(residual))
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
                trial_norm = float(np.linalg.norm(trial_residual))
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

    Each returned entry is (x, integral); admissibility of the extremal
    density shows up as integrals equal to one up to quadrature error.
    """
    nodes, weights = quad.box_rule(fam.surface_box)
    x_samples = np.asarray(x_samples, dtype=float).reshape(-1, fam.n - fam.m)
    values, fields = density._evaluate_grid(x_samples, nodes)
    if density.family is not fam:
        fields = _grid_fields(fam, x_samples, nodes)
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
    quadrature and rounding error.
    """
    _check_pair(fam, sub)
    x_nodes, x_weights, y_nodes, y_weights = _rules(fam, quad)
    fields = _grid_fields(fam, x_nodes, y_nodes, submersion=sub)
    weighted = np.outer(x_weights, y_weights)
    weighted = weighted * np.array([[float(integrand(z)) for z in row] for row in fields.images])
    lhs = weighted * fields.gradients * fields.dets
    return float(lhs.sum()), float((weighted * fields.areas).sum())


def submersion_modulus(
    sub: Submersion,
    levelset_param: ParametrizedFamily,
    p: float,
    quad: QuadratureScheme,
    residual_tol: float = 1e-4,
) -> ModulusReport:
    """p-modulus computed through a submersion describing the level sets.

    The surface weight is obtained by integrating the (q-1) power of the
    submersion's area factor over each level set; consistency of the
    submersion with the parametrization is probed first and an
    InconsistentSubmersion error is raised when the area-factor identity
    fails at any probe point.
    """
    q = conjugate_exponent(p)
    fam = levelset_param
    _probe_key_relation(fam, sub, residual_tol, "submersion_modulus")
    floor = jacobian_floor(fam)
    x_nodes, x_weights, y_nodes, y_weights = _rules(fam, quad)
    fields = _grid_fields(fam, x_nodes, y_nodes, floor=floor, submersion=sub)
    _raise_first(
        ~(fields.gradients > 0.0),
        DegenerateJacobian,
        lambda i, j: f"submersion differential is rank-deficient at z={fields.images[i, j]}",
    )
    level = (fields.gradients ** (q - 1.0) * fields.areas) @ y_weights
    _check_weights(level, x_nodes, "level-set weight")
    return _report(p, q, x_nodes, x_weights, level, fields.dets)


def extremality_probe(
    fam: ParametrizedFamily,
    p: float,
    quad: QuadratureScheme,
    trials: int = 50,
    seed: int = 0,
    amplitude: float = 0.3,
) -> float:
    """Worst p-energy gap of random admissible competitors.

    Each trial perturbs the extremal density by a product of low-order
    cosine waves in the parameter coordinates, with amplitude capped at
    ``amplitude`` times the density's minimum over the quadrature nodes
    (so competitors stay positive), then rescales by the smallest surface
    integral to restore admissibility and evaluates the p-energy by
    pullback.  Returns min over trials of (competitor energy - modulus);
    extremality of the density makes this nonnegative up to rounding.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    q = conjugate_exponent(p)
    floor = jacobian_floor(fam)
    x_nodes, x_weights, y_nodes, y_weights = _rules(fam, quad)
    l_vals, fields = _surface_weights(fam, q, x_nodes, y_nodes, y_weights, floor)
    modulus = _outer_integral(x_weights, l_vals, p)
    density = _density(fields, q, l_vals, x_nodes, y_nodes)
    floor_value = float(density.min())

    # Normalized coordinates of the nodes, for building the cosine waves.
    u_box, v_box = fam.param_box, fam.surface_box
    tx = (x_nodes - u_box.lower) / u_box.widths
    ty = (y_nodes - v_box.lower) / v_box.widths

    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        orders = rng.integers(1, 4, size=fam.n)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=fam.n)
        amp = amplitude * floor_value * rng.uniform(0.1, 1.0)
        wave_x = np.ones(len(x_nodes))
        for axis in range(u_box.dim):
            wave_x *= np.cos(2.0 * np.pi * orders[axis] * tx[:, axis] + phases[axis])
        wave_y = np.ones(len(y_nodes))
        for axis in range(v_box.dim):
            wave_y *= np.cos(
                2.0 * np.pi * orders[u_box.dim + axis] * ty[:, axis]
                + phases[u_box.dim + axis]
            )
        competitor = density + amp * np.outer(wave_x, wave_y)
        surface_integrals = (competitor * fields.areas) @ y_weights
        competitor = competitor / surface_integrals.min()
        energy = float(x_weights @ ((competitor**p * fields.dets) @ y_weights))
        worst = min(worst, energy - modulus)
    return float(worst)

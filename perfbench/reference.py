"""Closed-form references for the benchmark's correctness checks.

Everything here is written from the formulas alone, with numpy only, so
that no check compares surfmod against itself.  In particular the
condenser value is sx * sy^(1-p), never the catalog entry's
``expected_modulus`` (which evaluates ``modulus_p``).
"""

from __future__ import annotations

import math

import numpy as np


def conjugate(p: float) -> float:
    return p / (p - 1.0)


def power_integral(r0: float, r1: float, s: float) -> float:
    """Integral of r^(s-1) over (r0, r1), stable as s -> 0 (where it is log(r1/r0))."""
    log_ratio = math.log(r1 / r0)
    if s == 0.0:
        return log_ratio
    return r0**s * math.expm1(s * log_ratio) / s


def shear_modulus(u_volume: float, v_volume: float, shear, p: float) -> float:
    """vol(U) vol(V)^(1-p) det(S^T S + I)^(-p/2); S = 0 is the parallel family."""
    s = np.atleast_2d(np.asarray(shear, dtype=float))
    gram_det = float(np.linalg.det(s.T @ s + np.eye(s.shape[1])))
    return u_volume * v_volume ** (1.0 - p) * gram_det ** (-p / 2.0)


def shear_density(v_volume: float, shear) -> float:
    s = np.atleast_2d(np.asarray(shear, dtype=float))
    gram_det = float(np.linalg.det(s.T @ s + np.eye(s.shape[1])))
    return 1.0 / (v_volume * math.sqrt(gram_det))


def shear_surface_area(v_volume: float, shear) -> float:
    """Area of one sheared sheet, the integral over V of sqrt(det(S^T S + I))."""
    return 1.0 / shear_density(v_volume, shear)


def radial_weight(r0: float, r1: float, p: float) -> float:
    """Weight of one ray: the integral of r^(1-q) dr over (r0, r1)."""
    return power_integral(r0, r1, 2.0 - conjugate(p))


def annulus_radial_modulus(r0: float, r1: float, p: float) -> float:
    return 2.0 * math.pi * radial_weight(r0, r1, p) ** (1.0 - p)


def annulus_radial_density(radius: float, r0: float, r1: float, p: float) -> float:
    return radius ** (1.0 - conjugate(p)) / radial_weight(r0, r1, p)


def annulus_circular_modulus(r0: float, r1: float, p: float) -> float:
    """Integral over (r0, r1) of (2 pi r)^(1-p) dr."""
    return (2.0 * math.pi) ** (1.0 - p) * power_integral(r0, r1, 2.0 - p)


def annulus_circular_density(radius: float) -> float:
    return 1.0 / (2.0 * math.pi * radius)


def pq_map_modulus(u_length: float, v_length: float, p: float) -> float:
    """The pq-map family at its own exponent: vol(U) vol(V)^(1-p)."""
    return u_length * v_length ** (1.0 - p)


def condenser_modulus(sx: float, sy: float, p: float) -> float:
    """Unit parallel family under diag(sx, sy): sx sy^(1-p)."""
    return sx * sy ** (1.0 - p)


def condenser_density(sy: float) -> float:
    return 1.0 / sy


def relative_error(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)

"""The benchmark's three workloads.

Each workload draws every input from the generator it is given (seeded
by ``--seed``), hands surfmod only the generated families and points,
and runs whole rounds of the same operations so that the make-up of a
run does not depend on its length.  Every operation is checked against
``reference`` (closed forms written independently of surfmod) or against
properties of the output.

surfmod is always reached through module attributes (``sm.modulus_p``,
``cat.make_shear``) looked up at call time, so that a traced run sees
the wrapped functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import reference as ref
from surfmod import catalog as cat
from surfmod import modulus as sm
from surfmod import oracle as so
from surfmod.quadrature import QuadratureScheme


@dataclass
class Operation:
    """One unit of user-visible work.

    ``call`` is timed; ``check(result)`` is not, and returns None when the
    output is right or a one-line description of what is wrong, plus a
    dict of counts (nodes, samples, ...) read off the inputs and outputs.
    """

    label: str
    call: Callable
    check: Callable
    known_fault: bool = False


def _box(rng, dim):
    lower = rng.uniform(-1.0, 1.0, dim)
    width = rng.uniform(0.5, 2.0, dim)
    return [(float(a), float(a + w)) for a, w in zip(lower, width)]


def _volume(box):
    return math.prod(hi - lo for lo, hi in box)


def _inset_uniform(rng, box, inset=0.01):
    lo = np.array([a for a, _ in box])
    hi = np.array([b for _, b in box])
    pad = inset * (hi - lo)
    return rng.uniform(lo + pad, hi - pad)


def _modulus_error(value, expected, tol):
    err = ref.relative_error(value, expected)
    if not err <= tol:
        return f"modulus {value!r} vs closed form {expected!r}: relative error {err:.3e} > {tol:.0e}"
    return None


# ---------------------------------------------------------------------------
# reduction-sweep: one public modulus-layer call per operation
# ---------------------------------------------------------------------------

# n = 2 uses the catalog default (48 nodes per axis); the lighter rules keep
# one call well under a second at n = 3 (1000 nodes) and n = 4 (1296 nodes).
_RULES = {
    2: QuadratureScheme(order=12, subdivisions=4),
    3: QuadratureScheme(order=5, subdivisions=2),
    4: QuadratureScheme(order=3, subdivisions=2),
}

# Closed-form moduli come out within ~1e-14 with analytic Jacobians and
# ~5e-12 with finite differences; the default-rule faults are >= 1e-3.
_MODULUS_TOL = 1e-8
_COAREA_TOL = 1e-8
_ADMISSIBILITY_TOL = 1e-6
_EXTREMALITY_SLACK = -1e-9
_ADMISSIBILITY_SAMPLES = 8

# One pass: (family, k = n - m, m, call, finite-difference Jacobian).
# Calls: M modulus_p, S submersion_modulus, C coarea_check,
# A admissibility_check, E extremality_probe.
REDUCTION_PASS = (
    ("parallel", 1, 1, "M", False),
    ("shear", 1, 1, "C", False),
    ("annulus-radial", 1, 1, "M", False),
    ("annulus-radial", 1, 1, "E", True),
    ("annulus-circular", 1, 1, "S", False),
    ("annulus-circular", 1, 1, "A", False),
    ("pq-map", 1, 1, "M", True),
    ("pq-map", 1, 1, "C", False),
    ("condenser", 1, 1, "E", False),
    ("condenser", 1, 1, "A", True),
    ("annulus-radial", 1, 1, "A", False),
    ("shear", 1, 1, "S", True),
    ("parallel", 1, 2, "E", False),
    ("shear", 2, 1, "M", False),
    ("shear", 1, 2, "A", True),
    ("parallel", 2, 1, "S", False),
    ("shear", 1, 3, "M", True),
    ("parallel", 2, 2, "C", False),
    ("shear", 3, 1, "S", False),
    ("shear", 2, 2, "E", False),
)

# Known fault, on inputs that do not depend on the seed: the default rule
# under-resolves annulus-circular at r0 = 1e-4, p = 3 and modulus_p returns
# a value 88% off without raising.  It counts as failed in every pass.
KNOWN_FAULT = ("annulus-circular", 1e-4, 1.0, 3.0)


@dataclass
class _Family:
    """Seeded parameters of one family, and how to build it and its closed forms."""

    kind: str
    params: dict

    def build(self):
        """Catalog construction, consistency probe included (timed)."""
        pr = self.params
        if self.kind == "parallel":
            return cat.make_parallel(pr["u"], pr["v"])
        if self.kind == "shear":
            return cat.make_shear(pr["u"], pr["v"], pr["s"])
        if self.kind in ("annulus-radial", "annulus-circular"):
            mode = self.kind.split("-")[1]
            return cat.make_polar_annulus(pr["r0"], pr["r1"], mode=mode)
        if self.kind == "pq-map":
            return cat.make_pq_map(pr["p"], scale=pr["scale"], param_box=pr["u"], surface_box=pr["v"])
        if self.kind == "condenser":
            return cat.build_entry("condenser", {"sx": pr["sx"], "sy": pr["sy"]})
        raise ValueError(self.kind)

    def modulus(self, p):
        pr = self.params
        if self.kind == "parallel":
            return ref.shear_modulus(_volume(pr["u"]), _volume(pr["v"]), np.zeros((len(pr["u"]), len(pr["v"]))), p)
        if self.kind == "shear":
            return ref.shear_modulus(_volume(pr["u"]), _volume(pr["v"]), pr["s"], p)
        if self.kind == "annulus-radial":
            return ref.annulus_radial_modulus(pr["r0"], pr["r1"], p)
        if self.kind == "annulus-circular":
            return ref.annulus_circular_modulus(pr["r0"], pr["r1"], p)
        if self.kind == "pq-map":
            return ref.pq_map_modulus(_volume(pr["u"]), _volume(pr["v"]), p)
        if self.kind == "condenser":
            return ref.condenser_modulus(pr["sx"], pr["sy"], p)
        raise ValueError(self.kind)

    def param_box(self):
        pr = self.params
        if self.kind in ("parallel", "shear", "pq-map"):
            return pr["u"]
        if self.kind == "annulus-radial":
            return [(0.0, 2.0 * math.pi)]
        if self.kind == "annulus-circular":
            return [(pr["r0"], pr["r1"])]
        return [(0.0, 1.0)]


def draw_family(rng, kind, k, m, p) -> _Family:
    if kind in ("parallel", "shear"):
        params = {"u": _box(rng, k), "v": _box(rng, m)}
        if kind == "shear":
            params["s"] = rng.uniform(-1.0, 1.0, (k, m))
    elif kind.startswith("annulus"):
        r0 = float(rng.uniform(0.5, 1.5))
        params = {"r0": r0, "r1": r0 * float(rng.uniform(1.5, 3.0))}
    elif kind == "pq-map":
        params = {"p": p, "scale": float(rng.uniform(0.5, 3.0)), "u": _box(rng, 1), "v": _box(rng, 1)}
    elif kind == "condenser":
        sx, sy = rng.uniform(0.5, 2.0, 2)
        params = {"sx": float(sx), "sy": float(sy)}
    else:
        raise ValueError(kind)
    return _Family(kind, params)


def _coarea_integrand(z):
    return 1.0 + 0.25 * float(z @ z)


def _reduction_op(rng, kind, k, m, call, fd, p=None, family=None, known_fault=False):
    n = k + m
    quad = _RULES[n]
    p = float(rng.uniform(1.5, 3.0)) if p is None else p
    fam_spec = family or draw_family(rng, kind, k, m, p)
    axis_nodes = quad.order * quad.subdivisions
    x_samples = [_inset_uniform(rng, fam_spec.param_box()) for _ in range(_ADMISSIBILITY_SAMPLES)]
    trial_seed = int(rng.integers(2**31))
    expected = fam_spec.modulus(p)

    def run():
        entry = fam_spec.build()
        fam = replace(entry.family, jacobian=None) if fd else entry.family
        if call == "M":
            return sm.modulus_p(fam, p, quad)
        if call == "S":
            return sm.submersion_modulus(entry.submersion, fam, p, quad)
        if call == "C":
            return sm.coarea_check(fam, entry.submersion, _coarea_integrand, quad)
        if call == "A":
            density = sm.extremal_density(fam, p, quad)
            return sm.admissibility_check(fam, density, quad, x_samples)
        return sm.extremality_probe(fam, p, quad, seed=trial_seed)

    def check(result):
        nodes = axis_nodes**n
        error = None
        if call in ("M", "S"):
            error = _modulus_error(result.modulus, expected, _MODULUS_TOL)
            if error is None and result.node_count != nodes:
                error = f"node_count {result.node_count} != {nodes}"
        elif call == "C":
            lhs, rhs = result
            gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
            if not gap <= _COAREA_TOL:
                error = f"coarea sides {lhs!r} and {rhs!r} differ by {gap:.3e}"
        elif call == "A":
            nodes = len(x_samples) * axis_nodes**m
            worst = max(abs(value - 1.0) for _, value in result)
            if len(result) != len(x_samples) or not worst <= _ADMISSIBILITY_TOL:
                error = f"surface integral of the density off 1 by {worst:.3e}"
        elif not result >= _EXTREMALITY_SLACK:
            error = f"extremality gap {result!r} below {_EXTREMALITY_SLACK}"
        return error, {"nodes": nodes}

    label = f"{kind} n={n} m={m} {call}{' fd' if fd else ''}"
    return Operation(label, run, check, known_fault)


class ReductionSweep:
    name = "reduction-sweep"

    def setup_entries(self, rng):
        return [draw_family(rng, kind, k, m, 2.0).build() for kind, k, m, _, _ in REDUCTION_PASS]

    def prepare(self, rng):
        return None

    def round(self, state, rng):
        ops = [_reduction_op(rng, *slot) for slot in REDUCTION_PASS]
        kind, r0, r1, p = KNOWN_FAULT
        fault = _Family(kind, {"r0": r0, "r1": r1})
        ops.append(_reduction_op(rng, kind, 1, 1, "M", False, p=p, family=fault, known_fault=True))
        return ops


# ---------------------------------------------------------------------------
# ambient-queries: ExtremalDensity.evaluate_ambient, one point at a time
# ---------------------------------------------------------------------------

# Newton stops at 1e-10 of the region's diameter; densities land within ~1e-9.
_DENSITY_TOL = 1e-7
# Per case and round: three fresh points, then one repeat of an earlier one.
_QUERY_PATTERN = "FFFRFFFR"


@dataclass
class _AmbientCase:
    label: str
    family: _Family
    p: float
    fd: bool
    density: object = None
    seen: list = None

    def sample(self, rng):
        """A fresh point, uniform over the swept region (inset from its edges)."""
        pr = self.family.params
        kind = self.family.kind
        if kind.startswith("annulus"):
            r0, r1 = pr["r0"], pr["r1"]
            pad = 0.01 * (r1 - r0)
            radius = math.sqrt(rng.uniform((r0 + pad) ** 2, (r1 - pad) ** 2))
            angle = rng.uniform(0.02, 2.0 * math.pi - 0.02)
            return np.array([radius * math.cos(angle), radius * math.sin(angle)])
        if kind == "shear":
            x = _inset_uniform(rng, pr["u"])
            y = _inset_uniform(rng, pr["v"])
            return np.concatenate([x + pr["s"] @ y, y])
        x, y = rng.uniform(0.01, 0.99, 2)
        return np.array([pr["sx"] * x, pr["sy"] * y])

    def expected(self, z):
        pr = self.family.params
        kind = self.family.kind
        if kind == "annulus-radial":
            return ref.annulus_radial_density(float(np.hypot(*z)), pr["r0"], pr["r1"], self.p)
        if kind == "annulus-circular":
            return ref.annulus_circular_density(float(np.hypot(*z)))
        if kind == "shear":
            return ref.shear_density(_volume(pr["v"]), pr["s"])
        return ref.condenser_density(pr["sy"])


AMBIENT_CASES = (
    ("annulus-radial", False),
    ("annulus-radial", True),
    ("annulus-circular", False),
    ("annulus-circular", True),
    ("shear", False),
    ("condenser", False),
)


class AmbientQueries:
    name = "ambient-queries"

    def _cases(self, rng):
        cases = []
        for kind, fd in AMBIENT_CASES:
            p = float(rng.uniform(1.5, 3.0))
            label = f"{kind}{' fd' if fd else ''}"
            cases.append(_AmbientCase(label, draw_family(rng, kind, 1, 1, p), p, fd))
        return cases

    def setup_entries(self, rng):
        return [case.family.build() for case in self._cases(rng)]

    def prepare(self, rng):
        """Build each case's density once and let its lazy seed grid fill."""
        cases = self._cases(rng)
        quad = cat.default_quadrature()
        for case in cases:
            entry = case.family.build()
            fam = replace(entry.family, jacobian=None) if case.fd else entry.family
            case.density = sm.extremal_density(fam, case.p, quad)
            case.density.evaluate_ambient(case.sample(rng))
            case.seen = []
        return cases

    def round(self, cases, rng):
        ops = []
        for case in cases:
            for kind in _QUERY_PATTERN:
                if kind == "F":
                    z = case.sample(rng)
                    case.seen.append(z)
                    label = f"{case.label} fresh"
                else:
                    z = case.seen[int(rng.integers(len(case.seen)))]
                    label = f"{case.label} repeat"
                ops.append(self._query(case, z, label))
        return ops

    @staticmethod
    def _query(case, z, label):
        expected = case.expected(z)
        density = case.density

        def check(value):
            err = ref.relative_error(value, expected)
            if not err <= _DENSITY_TOL:
                return f"density {value!r} at {z} vs closed form {expected!r} ({err:.3e})", {}
            return None, {}

        return Operation(label, lambda: density.evaluate_ambient(z), check)


# ---------------------------------------------------------------------------
# oracle-ladder: discretize_family then solve_discrete on every rung of a ladder
# ---------------------------------------------------------------------------

LADDER = (16, 32, 64)
ORACLE_EXPONENTS = (2.0, 3.0)
# cross_validate's defaults: surfaces 3x and samples 4x the cells per axis.
_SURFACES_PER_CELL = 3
_SAMPLES_PER_CELL = 4
_SOLVER_TOL = 1e-6
_SOLVER_MAX_ITERS = 20000
_ORACLE_BAND = 0.05
_AREA_TOL = 1e-9


def _oracle_family(rng, kind) -> _Family:
    if kind == "annulus-radial":
        r0 = float(rng.uniform(0.8, 1.2))
        return _Family(kind, {"r0": r0, "r1": r0 * float(rng.uniform(1.8, 2.6))})
    if kind == "parallel":
        return _Family(kind, {"u": _box(rng, 1), "v": _box(rng, 1)})
    # The 64-cell gap grows with the slant s |V| / |U| (3.9% at 1.0, 4.5% at
    # 1.4 with p = 3); these ranges keep it below 0.94.
    lower = rng.uniform(-1.0, 1.0, 2)
    width = rng.uniform(0.8, 1.25, 2)
    u, v = ([(float(a), float(a + w))] for a, w in zip(lower, width))
    return _Family(kind, {"u": u, "v": v, "s": rng.uniform(-0.6, 0.6, (1, 1))})


def _surface_area(spec: _Family) -> float:
    """Integral over V of the area factor, the same for every surface."""
    pr = spec.params
    if spec.kind == "annulus-radial":
        return pr["r1"] - pr["r0"]
    if spec.kind == "shear":
        return ref.shear_surface_area(_volume(pr["v"]), pr["s"])
    return _volume(pr["v"])


class OracleLadder:
    name = "oracle-ladder"
    kinds = ("parallel", "annulus-radial", "shear")

    def __init__(self, ladder=LADDER):
        self.ladder = tuple(ladder)

    def setup_entries(self, rng):
        return [_oracle_family(rng, kind).build() for kind in self.kinds]

    def prepare(self, rng):
        specs = [_oracle_family(rng, kind) for kind in self.kinds]
        ladders = [(spec, spec.build(), p) for spec in specs for p in ORACLE_EXPONENTS]
        return {"ladders": ladders, "next": 0}

    def round(self, state, rng):
        """One ladder; successive rounds cycle through family and p.

        A round of all six ladders takes 22-36 s here, longer than a run, so
        a run ends after whichever ladder crosses its length.  Every ladder
        has the same rungs and nearly the same cost (the 64-cell
        discretization is 70-85% of it), and no ladder is expected to fail.
        """
        spec, entry, p = state["ladders"][state["next"] % len(state["ladders"])]
        state["next"] += 1
        return [self._ladder(spec, entry, p, rng)]

    def _ladder(self, spec, entry, p, rng):
        """One operation: every rung of the ladder, as ``surfmod cross-validate`` runs it.

        The rungs are 16, 32 and 64 cells, which cost about 1 : 4 : 15; a
        rung as the operation would put the median on the two or three
        middle rungs of a run, about a second of it.
        """
        fam = entry.family
        expected = spec.modulus(p)
        area = _surface_area(spec)

        def run():
            rungs = []
            for cells in self.ladder:
                surfaces = _SURFACES_PER_CELL * cells
                samples = _SAMPLES_PER_CELL * cells
                problem = so.discretize_family(fam, p, cells, surfaces, samples, rng=rng)
                sol = so.solve_discrete(problem, tol=_SOLVER_TOL, max_iters=_SOLVER_MAX_ITERS)
                rungs.append((cells, problem, sol))
            return rungs

        def check(rungs):
            counts = {"samples": 0, "nnz": 0, "lbfgs_iters": 0}
            error = None
            for cells, problem, sol in rungs:
                surfaces = _SURFACES_PER_CELL * cells
                samples = _SAMPLES_PER_CELL * cells
                counts["samples"] += surfaces ** (fam.n - fam.m) * samples**fam.m
                counts["nnz"] += sum(idx.size for idx, _ in problem.surfaces)
                counts["lbfgs_iters"] += sol.iterations
                error = error or _rung_error(problem, sol, area, cells)
            if error is None:
                error = _modulus_error(rungs[-1][2].objective, expected, _ORACLE_BAND)
            return error, counts

        label = f"{spec.kind} p={p:g} cells={'/'.join(map(str, self.ladder))}"
        return Operation(label, run, check)


def _rung_error(problem, sol, area, cells):
    """What is wrong with one rung's discretization or solution, or None."""
    worst = max(abs(w.sum() - area) / area for _, w in problem.surfaces)
    gap = (sol.objective - sol.lower_bound) / sol.objective
    if not worst <= _AREA_TOL:
        return f"{cells} cells: a surface's total weight is off its area by {worst:.3e}"
    if not sol.lower_bound <= sol.objective * (1.0 + 1e-12):
        return f"{cells} cells: objective {sol.objective!r} below lower bound {sol.lower_bound!r}"
    if not (gap <= _SOLVER_TOL and sol.max_constraint_violation <= _SOLVER_TOL):
        return f"{cells} cells: gap {gap:.3e} or violation {sol.max_constraint_violation:.3e} above tolerance"
    return None


WORKLOADS = {w.name: w for w in (ReductionSweep(), AmbientQueries(), OracleLadder())}

"""Discrete convex verification of continuum moduli.

The continuum modulus is the infimum of the p-energy over densities
whose integral along every surface of the family is at least one.  This
module discretizes that program directly, with no reference to the
reduction formula: the swept region is covered by a uniform grid of
cells, each surface becomes a row of the weight matrix A (how much
surface measure it deposits in each cell), and the resulting finite
convex program

    minimize   sum_c volume_c * density_c^p
    subject to sum_c weight_sc * density_c >= 1   for every surface s,
               density >= 0

is solved through its smooth concave dual followed by a feasibility
rescaling.  A is stored once, as one read-only compressed sparse row
(CSR) matrix, from :func:`discretize_family` through the solve;
``DiscreteModulusProblem.surfaces`` views its rows.  Each projected
Newton step on the dual forms its Hessian by one sparse product,
A diag(curvature) A^T, in memory of order nnz(A A^T).  The two routes
share the family and the node-field kernel (|det J| and the area
factors of :func:`surfmod.family.node_fields`, checked in
``tests/test_kernel.py`` against ``np.linalg.det`` and a sum over
minors), but not l(x), the quadrature or the closed form, so their
agreement is evidence that the reduction is implemented correctly.

The cell volumes are pushforward volumes: the sum of |det J| times the
parameter measure over the very samples that deposit the weights, so
volumes and weights are two views of one measure.  On an affine family
the area factor over |det J| is constant, the uniform multiplier is then
dual-optimal, and every rung is exact to rounding at any resolution;
curved families converge from above as the grid refines.  The volumes
count multiplicity, so a map that covers a region twice gets twice its
volume there, and the oracle agrees with the reduction's value for a
non-injective family instead of witnessing against it.  Injectivity
needs a separate guard.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateJacobian, InfeasibleSurface, NoConvergence
from .family import ParametrizedFamily, _count, _pairs, _product, _stacked_map, node_fields
# perfbench/spans.py traces these three names at this module.
from .family import evaluate_map, jacobian_partial_y  # noqa: F401
from .linalg import generalized_norm  # noqa: F401
from .modulus import conjugate_exponent

__all__ = [
    "DiscreteModulusProblem",
    "DiscreteSolution",
    "CrossValidationRow",
    "discretize_family",
    "solve_discrete",
    "cross_validate",
]

_TEXT_HEADER = "surfmod-discrete-problem 1"

# Samples per block in discretize_family; bounds its temporaries.
_SAMPLE_BLOCK = 1 << 13

# Projected Newton: Marquardt damping at unit projected gradient, Armijo
# fraction of the predicted decrease, and step halvings before giving up.
_DAMPING = 1e-2
_ARMIJO = 1e-4
_BACKTRACKS = 60
_EPS = float(np.finfo(float).eps)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


@dataclass(frozen=True, eq=False)
class DiscreteModulusProblem:
    """Cell grid plus the surface-by-cell weight matrix of the discrete program.

    ``weights`` is anything ``scipy.sparse.csr_matrix`` converts to shape
    (surfaces, cells), such as a sparse matrix or a dense 2-d array.  The
    problem keeps its own CSR copy with read-only arrays, whose index type
    is the one scipy.sparse picks (int32 unless the sizes need int64), and
    ``surfaces`` views its rows as (cell_indices, weights) pairs.  Weights
    with the wrong column count, a cell outside the grid, or an entry that
    is not finite and nonnegative raise ValueError, checked in that order.
    """

    p: float
    centers: np.ndarray
    volumes: np.ndarray
    weights: "scipy.sparse.csr_matrix"

    def __post_init__(self):
        import scipy.sparse

        conjugate_exponent(self.p)
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        volumes = np.asarray(self.volumes, dtype=float)
        if centers.shape[0] != volumes.shape[0]:
            raise ValueError("one volume per cell center is required")
        if not (np.isfinite(volumes) & (volumes > 0.0)).all():
            raise ValueError("cell volumes must be finite and positive")
        if not np.isfinite(centers).all():
            raise ValueError("cell centers must be finite")
        given = scipy.sparse.csr_matrix(self.weights, dtype=float)
        if given.shape[1] != len(volumes):
            raise ValueError(f"the weights have {given.shape[1]} columns for {len(volumes)} cells")
        # Rebuilt from its arrays, so scipy picks the index type anew.
        weights = scipy.sparse.csr_matrix(
            (given.data, given.indices, given.indptr), shape=given.shape, copy=True
        )
        # scipy does not check the column indices of given arrays.
        if np.any((weights.indices < 0) | (weights.indices >= len(volumes))):
            raise ValueError("surface refers to a cell outside the grid")
        if not (np.isfinite(weights.data) & (weights.data >= 0.0)).all():
            raise ValueError("surface weights must be finite and nonnegative")
        for array in (weights.data, weights.indices, weights.indptr):
            array.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "volumes", volumes)
        object.__setattr__(self, "weights", weights)

    @functools.cached_property
    def surfaces(self) -> tuple:
        """One (cell_indices, weights) pair of read-only views per row of the weights."""
        a = self.weights
        bounds = a.indptr.tolist()
        return tuple(
            (a.indices[i:j], a.data[i:j]) for i, j in zip(bounds[:-1], bounds[1:])
        )

    @property
    def cell_count(self) -> int:
        return self.centers.shape[0]

    @property
    def surface_count(self) -> int:
        return self.weights.shape[0]

    def constraint_matrix(self) -> "scipy.sparse.csr_matrix":
        """The surface-by-cell weight matrix, the problem's own read-only copy."""
        return self.weights

    def to_text(self) -> str:
        """Plain-text serialization: one line per cell (center coordinates
        then volume) and one line per surface (index:weight pairs)."""
        lines = [
            _TEXT_HEADER,
            f"p {_fmt(self.p)}",
            f"dim {self.centers.shape[1]}",
            f"cells {self.cell_count}",
        ]
        for center, volume in zip(self.centers, self.volumes):
            coords = " ".join(_fmt(c) for c in center)
            lines.append(f"{coords} {_fmt(volume)}")
        lines.append(f"surfaces {self.surface_count}")
        for idx, w in self.surfaces:
            lines.append(" ".join(f"{i}:{_fmt(x)}" for i, x in zip(idx, w)))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _labeled(line: str, label: str) -> str:
        parts = line.split()
        if len(parts) != 2 or parts[0] != label:
            raise ValueError(f"expected '{label} <value>', got {line!r}")
        return parts[1]

    @classmethod
    def from_text(cls, text: str) -> "DiscreteModulusProblem":
        import scipy.sparse

        lines = text.splitlines()
        try:
            if lines[0].strip() != _TEXT_HEADER:
                raise ValueError(f"unrecognized header {lines[0]!r}")
            p = float(cls._labeled(lines[1], "p"))
            dim = int(cls._labeled(lines[2], "dim"))
            n_cells = int(cls._labeled(lines[3], "cells"))
            centers = np.empty((n_cells, dim))
            volumes = np.empty(n_cells)
            for i in range(n_cells):
                parts = [float(tok) for tok in lines[4 + i].split()]
                if len(parts) != dim + 1:
                    raise ValueError(f"cell line {i} has {len(parts)} fields")
                centers[i] = parts[:dim]
                volumes[i] = parts[dim]
            cursor = 4 + n_cells
            n_surfaces = int(cls._labeled(lines[cursor], "surfaces"))
            pairs, indptr = [], [0]
            for i in range(n_surfaces):
                pairs += [tok.split(":") for tok in lines[cursor + 1 + i].split()]
                indptr.append(len(pairs))
            indices = np.array([int(a) for a, _ in pairs], dtype=int)
            data = np.array([float(b) for _, b in pairs], dtype=float)
        except (IndexError, ValueError) as exc:
            raise ValueError(f"malformed discrete-problem text: {exc}") from exc
        weights = scipy.sparse.csr_matrix(
            (data, indices, np.array(indptr)), shape=(n_surfaces, n_cells)
        )
        return cls(p=p, centers=centers, volumes=volumes, weights=weights)


@dataclass(frozen=True, eq=False)
class DiscreteSolution:
    """Feasible density for the discrete program with solver diagnostics.

    ``objective`` upper-bounds the discrete optimum and ``lower_bound``
    (the final dual value) bounds it from below; their gap certifies
    solution quality.  ``iterations`` counts the solver's steps: the
    rescaling of its all-ones start, then one per projected Newton step.
    """

    density: np.ndarray
    objective: float
    max_constraint_violation: float
    iterations: int
    lower_bound: float


@dataclass(frozen=True)
class CrossValidationRow:
    resolution: int
    discrete_modulus: float
    relative_gap: float


def discretize_family(
    fam: ParametrizedFamily,
    p: float,
    cells_per_axis: int,
    surfaces_count: int,
    samples_per_surface: int,
    padding: float = 0.02,
    rng: np.random.Generator | None = None,
) -> DiscreteModulusProblem:
    """Sample a family into a discrete modulus program.

    A bounding box of the swept region is estimated from forward images
    and padded by ``padding`` of its span on every side (a finite value
    of at least 0, else ValueError: a negative one would cut the image
    off the grid), then split into
    ``cells_per_axis`` uniform cells per ambient axis.  For each of the
    parameter values on a uniform grid (``surfaces_count`` per parameter
    axis), the surface is sampled at ``samples_per_surface`` points per
    surface axis; each sample deposits its local surface measure (area
    factor times parameter cell volume) into the ambient cell that
    contains it.  With ``rng`` given, samples are jittered uniformly
    within their parameter cells; otherwise cell midpoints are used,
    which converge about three times more slowly on curved families
    (annulus-circular (1, 2) at 32 cells: +0.91% at p = 2 and +1.9% at
    p = 3, against +0.22% and +0.65% jittered).  The three counts must
    be integers of at least 1; a bool or a non-integral value raises
    ValueError.

    Each sample gets one key, its surface index times the cell count
    plus the row-major index of its cell (coordinates outside the grid
    are clipped onto its edge cells), and a surface's weight in a cell
    is the sum of its samples' deposits there, in sample order.  Bins
    whose sum is zero, such as those holding only zero-area samples,
    are dropped.  A cell's volume is the sum over the same samples of
    |det J| times their parameter measure (parameter cell volume times
    surface cell volume).  Cells left without volume, which no sample
    reaches or which samples reach only where |det J| = 0, are dropped
    and the rest renumbered in row-major order, with ``centers`` in step.

    Raises
    ------
    DegenerateJacobian
        If a cell holds surface weight but |det J| vanishes at every
        sample in it, so that its volume is zero.
    """
    import scipy.sparse

    conjugate_exponent(p)
    cells_per_axis = _count(cells_per_axis, "cells_per_axis")
    surfaces_count = _count(surfaces_count, "surfaces_count")
    samples_per_surface = _count(samples_per_surface, "samples_per_surface")
    if not (np.isfinite(padding) and padding >= 0.0):
        raise ValueError(f"padding must be finite and >= 0, got {padding!r}")

    # Padded bounding box of the image, from an endpoint-touching probe grid.
    probe_per_axis = 33 if fam.n <= 2 else (17 if fam.n == 3 else 9)

    def probe(box):
        pad = 1e-9 * box.widths
        ends = zip(box.lower + pad, box.upper - pad)
        return _product([np.linspace(lo, hi, probe_per_axis) for lo, hi in ends])

    x, y = probe(fam.param_box), probe(fam.surface_box)
    images = _stacked_map(fam, *_pairs(x[:, None], y[None], (len(x), len(y))))
    box_lo = images.min(axis=0)
    box_hi = images.max(axis=0)
    span = box_hi - box_lo
    span = np.where(span > 0.0, span, 1.0)
    box_lo = box_lo - padding * span
    box_hi = box_hi + padding * span

    cell_widths = (box_hi - box_lo) / cells_per_axis
    n_cells = cells_per_axis**fam.n

    x_values = fam.param_box.grid(surfaces_count)
    y_base = fam.surface_box.grid(samples_per_surface)
    sample_volume = fam.surface_box.volume / y_base.shape[0]
    sample_measure = sample_volume * fam.param_box.volume / len(x_values)
    y_cell = fam.surface_box.widths / samples_per_surface

    # Surfaces go through the kernel in blocks of about _SAMPLE_BLOCK
    # samples; successive jitter draws reproduce the per-surface stream.
    per_surface = y_base.shape[0]
    block = max(1, _SAMPLE_BLOCK // per_surface)
    volumes = np.zeros(n_cells)
    cells, weights, counts = [], [], []
    for start in range(0, len(x_values), block):
        x_block = x_values[start : start + block]
        y_points = y_base
        if rng is not None:
            jitter = rng.uniform(-0.5, 0.5, size=(len(x_block),) + y_base.shape)
            y_points = y_base + jitter * y_cell
        # Fields of shape (surfaces in the block, samples per surface).
        fields = node_fields(fam, x_block[:, None], y_points, images=True)
        # Row-major cell of each sample, one image column at a time.
        cell = np.zeros(fields.dets.shape, dtype=np.intp)
        for axis in range(fam.n):
            column = ((fields.images[..., axis] - box_lo[axis]) / cell_widths[axis]).astype(np.intp)
            np.clip(column, 0, cells_per_axis - 1, out=column)
            cell += column * cells_per_axis ** (fam.n - 1 - axis)
        measures = fields.dets.ravel() * sample_measure
        volumes += np.bincount(cell.ravel(), weights=measures, minlength=n_cells)
        # bincount sums each (surface, cell) bin in sample order; bins
        # holding only zero-area samples sum to 0.0 and are dropped.
        keys = np.arange(len(x_block))[:, None] * n_cells + cell
        keys, inverse = np.unique(keys, return_inverse=True)
        block_weights = np.bincount(inverse.ravel(), weights=fields.areas.ravel() * sample_volume)
        nonzero = block_weights != 0.0
        keys = keys[nonzero]
        cells.append(keys % n_cells)
        weights.append(block_weights[nonzero])
        counts.append(np.bincount(keys // n_cells, minlength=len(x_block)))

    # Only the cells that the samples give volume stay, renumbered in order.
    kept = np.flatnonzero(volumes > 0.0)
    renumber = np.full(n_cells, -1, dtype=np.intp)
    renumber[kept] = np.arange(kept.size)
    cells = np.concatenate(cells)
    weights = np.concatenate(weights)
    remapped = renumber[cells]
    if np.any(remapped < 0):
        cell = int(cells[np.argmax(remapped < 0)])
        raise DegenerateJacobian(
            f"cell {cell} holds surface weight but |det J| vanishes at every sample "
            f"in it, so its pushforward volume is zero"
        )
    grid_index = np.stack(np.unravel_index(kept, (cells_per_axis,) * fam.n), axis=-1)
    centers = box_lo + cell_widths * (grid_index + 0.5)
    indptr = np.cumsum(np.concatenate([[0]] + counts))
    matrix = scipy.sparse.csr_matrix((weights, remapped, indptr), shape=(len(x_values), kept.size))
    return DiscreteModulusProblem(p=float(p), centers=centers, volumes=volumes[kept], weights=matrix)


def solve_discrete(
    problem: DiscreteModulusProblem,
    tol: float = 1e-7,
    max_iters: int = 5000,
) -> DiscreteSolution:
    """Solve the discrete program to a certified relative duality gap.

    The Lagrangian dual in the per-surface multipliers lam >= 0 is
    smooth and concave: the cellwise inner minimization has the closed
    form density_c = (load_c / (p volume_c))^(1/(p-1)), with load = A^T lam
    the multiplier-combined surface weight, and the dual's Hessian is
    -A diag(density / ((p-1) load)) A^T, formed at each Newton step by one
    sparse product that holds only the nnz(A A^T) entries.  The dual is
    maximized by projected Newton steps (Bertsekas 1982): surfaces at or
    near the bound and pushed into it move by a diagonally scaled
    gradient step, the others by a Newton step damped in the
    Levenberg-Marquardt way, and an Armijo search runs along the
    projection arc max(0, lam + alpha d).  The resulting density is
    rescaled by the smallest constraint margin to restore feasibility.
    The iteration returns as soon as the relative gap between that
    rescaled density's objective and the dual value is at most ``tol``,
    so the objective is within ``tol`` of the discrete optimum but not
    tighter: it may differ from a longer run's by up to ``tol``.  The
    rescale step amplifies the iteration's stationarity defect on
    problems with many redundant constraints, which the default ``tol``
    leaves headroom for.  Weights and volumes are scaled by powers of two
    for the solve, so its steps do not depend on their units.  A program
    without surfaces constrains nothing: it returns the zero density, with
    zero objective, bound and steps.

    Raises
    ------
    ValueError
        If ``tol`` is not finite and > 0, or ``max_iters`` is not an
        integer >= 0 (a bool is not one).
    InfeasibleSurface
        If some surface carries no weight at all.
    NoConvergence
        If the relative duality gap or the residual violation still
        exceeds ``tol`` after ``max_iters`` iterations, or no step
        along the projection arc makes progress.
    """
    from scipy.sparse import csc_matrix, csr_matrix
    from scipy.sparse.linalg import splu

    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if isinstance(max_iters, bool) or not isinstance(max_iters, numbers.Integral) or max_iters < 0:
        raise ValueError(f"max_iters must be an integer >= 0, got {max_iters!r}")
    p = problem.p
    q = conjugate_exponent(p)
    if problem.surface_count == 0:
        return DiscreteSolution(
            density=np.zeros(problem.cell_count),
            objective=0.0,
            max_constraint_violation=0.0,
            iterations=0,
            lower_bound=0.0,
        )
    a = problem.constraint_matrix()
    empty = np.flatnonzero(a @ np.ones(problem.cell_count) <= 0.0)
    if empty.size:
        raise InfeasibleSurface(
            f"surface {empty[0]} has zero total weight; its constraint cannot be met"
        )
    # Weights and volumes enter divided by 2^weight_exp and 2^volume_exp,
    # the powers of two at their largest entries, so the all-ones start is
    # well scaled in any units; the density then scales back by
    # 2^-weight_exp and the energy by 2^(volume_exp - p weight_exp).
    weight_exp = int(np.frexp(a.data.max())[1])
    volume_exp = int(np.frexp(problem.volumes.max())[1])
    a = csr_matrix((np.ldexp(a.data, -weight_exp), a.indices, a.indptr), shape=a.shape)
    volumes = np.ldexp(problem.volumes, -volume_exp)
    energy_scale = float(np.exp2(volume_exp - p * weight_exp))
    a_t = a.T.tocsr()  # converted once, not by every product with it
    exponent = 1.0 / (p - 1.0)
    surfaces = problem.surface_count

    def evaluate(lam):
        """Loads, densities and constraint margins at the multipliers."""
        load = a_t @ lam
        density = (load / (p * volumes)) ** exponent
        return load, density, a @ density

    def negative_dual(lam, margins):
        # load @ density, summed over surfaces rather than cells: fewer
        # terms, and exactly invariant under a permutation of the cells.
        return (lam @ margins) / q - lam.sum()

    def stationarity(lam, margins):
        """Largest projected-gradient entry of the negative dual."""
        grad = margins - 1.0
        return float(np.abs(np.where((lam > 0.0) | (grad < 0.0), grad, 0.0)).max())

    def certificate(lam, margins):
        """Relative gap, objective of the rescaled density, dual value.

        At margins m = A density(lam), sum_c volume_c density_c^p is
        (lam . m) / p, so no further sparse product is needed.
        """
        smallest = float(margins.min())
        energy = float(lam @ margins)
        lower = float(lam.sum()) - energy / q
        if not smallest > 0.0:
            return np.inf, np.inf, lower
        objective = energy / (p * smallest**p)
        gap = (objective - lower) / objective if objective > 0.0 else np.inf
        return gap, objective, lower

    lam = np.ones(surfaces)
    load, density, margins = evaluate(lam)
    gap = violation = np.inf
    for step in range(max_iters + 1):
        # The same certificate that ends the iteration accepts its result.
        gap, objective, lower = certificate(lam, margins)
        if gap <= tol:
            smallest = float(margins.min())
            violation = float(max(0.0, 1.0 - (a @ (density / smallest)).min()))
            if violation <= tol:
                return DiscreteSolution(
                    density=np.ldexp(density / smallest, -weight_exp),
                    objective=objective * energy_scale,
                    max_constraint_violation=violation,
                    iterations=step,
                    lower_bound=lower * energy_scale,
                )
        if step == max_iters:
            break
        if step == 0:
            # The first step moves the all-ones start to its best multiple:
            # along that ray the dual is t sum(lam) - t^q (lam . m)/q.
            lam = lam * (lam.sum() / (lam @ margins)) ** (p - 1.0)
            load, density, margins = evaluate(lam)
            continue
        grad = margins - 1.0
        defect = stationarity(lam, margins)
        curvature = np.divide(
            density, (p - 1.0) * load, out=np.zeros_like(load), where=load > 0.0
        )
        scaled = csr_matrix((a.data * curvature[a.indices], a.indices, a.indptr), shape=a.shape)
        hessian = (scaled @ a_t).tocoo()
        rows, cols, values = hessian.row, hessian.col, hessian.data
        # The product drops entries that sum to exactly 0, among them the
        # diagonal entry of a surface whose cells all carry zero load;
        # bincount gives that surface a 0.
        on_diagonal = rows == cols
        diagonal = np.bincount(rows[on_diagonal], values[on_diagonal], minlength=surfaces)
        # Marquardt damping, relative to each diagonal entry and fading
        # with the projected gradient; the floor keeps a surface whose
        # cells all carry zero load (zero curvature) solvable.
        damped = diagonal * (1.0 + _DAMPING * min(1.0, defect)) + 1e-12 * diagonal.max()
        # Bertsekas' active set: surfaces within `width` of the bound that
        # the gradient pushes into it take a diagonally scaled gradient
        # step, decoupled from the Newton step of the free ones.
        width = min(1e-3 * lam.max(), np.abs(lam - np.maximum(lam - grad / damped, 0.0)).max())
        free = ~((lam <= width) & (grad > 0.0))
        coupled = ~on_diagonal & free[rows] & free[cols]
        every = np.arange(surfaces)
        entries = (np.append(rows[coupled], every), np.append(cols[coupled], every))
        matrix = csc_matrix((np.append(values[coupled], damped), entries), shape=(surfaces,) * 2)
        factor = splu(
            matrix,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        direction = factor.solve(-grad)
        value = negative_dual(lam, margins)
        newton_gain = -(grad @ np.where(free, direction, 0.0))
        # Close to the optimum the dual moves by rounding error only, and a
        # step is taken when it reduces the projected gradient instead.
        rounding = 16 * _EPS * (lam.sum() + abs(value))
        alpha = 1.0
        for _ in range(_BACKTRACKS):
            trial = np.maximum(lam + alpha * direction, 0.0)
            trial_state = evaluate(trial)
            change = negative_dual(trial, trial_state[2]) - value
            gain = alpha * newton_gain + grad @ np.where(free, 0.0, lam - trial)
            if change <= -_ARMIJO * gain or (
                abs(change) <= rounding
                and stationarity(trial, trial_state[2]) < defect
            ):
                break
            alpha *= 0.5
        else:
            raise NoConvergence(
                f"no step along the projection arc makes progress at duality gap "
                f"{gap:.3e} after {step} iterations"
            )
        lam = trial
        load, density, margins = trial_state
    raise NoConvergence(
        f"duality gap {gap:.3e} (violation {violation:.3e}) still above "
        f"{tol:.1e} after {max_iters} iterations"
    )


def cross_validate(
    fam: ParametrizedFamily,
    p: float,
    analytic: float,
    grid_ladder,
    surfaces_count: int | None = None,
    samples_per_surface: int | None = None,
    rng: np.random.Generator | None = None,
) -> list:
    """Discrete moduli along a ladder of grid resolutions.

    ``analytic`` is the reference modulus, a positive number.  For each
    resolution the surface count defaults to 3x and the per-surface
    sample count to 4x the cells per axis, keeping neighboring surfaces
    closer than a cell so the sampled family constrains every corridor
    of the grid.  Rungs and counts must be integers of at least 1, as
    for :func:`discretize_family`, and all of them are checked before the
    first solve.  Each rung is solved to a relative duality gap of 1e-6
    within 20000 iterations.
    With ``rng=None`` every rung samples cell midpoints, which converge
    about three times more slowly than jittered samples on curved
    families; pass a generator for jittered ladders.  Returns one
    CrossValidationRow per rung; gaps are reported, not enforced.
    """
    expected = float(analytic)
    if not expected > 0.0:
        raise ValueError("the analytic modulus must be positive")
    ladder = [_count(resolution, "grid resolution") for resolution in grid_ladder]
    rows = []
    for resolution in ladder:
        surfaces = 3 * resolution if surfaces_count is None else surfaces_count
        samples = 4 * resolution if samples_per_surface is None else samples_per_surface
        problem = discretize_family(fam, p, resolution, surfaces, samples, rng=rng)
        solution = solve_discrete(problem, tol=1e-6, max_iters=20000)
        gap = abs(solution.objective - expected) / expected
        rows.append(
            CrossValidationRow(
                resolution=resolution,
                discrete_modulus=solution.objective,
                relative_gap=gap,
            )
        )
    return rows

"""Discrete convex program: discretization, solver, and cross-validation."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from surfmod import (
    BoxDomain,
    CrossValidationRow,
    DegenerateJacobian,
    DiscreteModulusProblem,
    InfeasibleSurface,
    NoConvergence,
    ParametrizedFamily,
    conjugate_exponent,
    cross_validate,
    discretize_family,
    make_parallel,
    make_polar_annulus,
    make_shear,
    solve_discrete,
)
from surfmod import oracle as oracle_module
from surfmod.linalg import stacked_norm


def closed_form_single_surface(p, volumes, weights):
    """Exact optimum of the one-constraint program.

    Holder duality gives density_c proportional to (w_c/v_c)^(1/(p-1))
    and the optimal value (sum of w^q v^(1-q))^(1-p).
    """
    q = conjugate_exponent(p)
    total = np.sum(weights**q * volumes ** (1.0 - q))
    return float(total ** (1.0 - p))


def random_problem(rng, cells=12, surfaces=4, p=2.0):
    centers = rng.uniform(0.0, 1.0, size=(cells, 2))
    volumes = rng.uniform(0.5, 1.5, size=cells) / cells
    weights = np.zeros((surfaces, cells))
    for row in weights:
        count = int(rng.integers(2, cells + 1))
        idx = rng.choice(cells, size=count, replace=False)
        row[np.sort(idx)] = rng.uniform(0.2, 1.0, size=count)
    return DiscreteModulusProblem(p=p, centers=centers, volumes=volumes, weights=weights)


def same_problem(one, two):
    """Whether two problems have equal p, cells and CSR weight arrays."""

    def arrays(problem):
        a = problem.weights
        return problem.centers, problem.volumes, a.data, a.indices, a.indptr

    return one.p == two.p and all(map(np.array_equal, arrays(one), arrays(two)))


def test_problem_validation():
    with pytest.raises(ValueError):
        DiscreteModulusProblem(
            p=2.0, centers=[[0.0]], volumes=[1.0, 2.0], weights=np.zeros((0, 2))
        )
    for volume in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="volumes must be finite and positive"):
            DiscreteModulusProblem(p=2.0, centers=[[0.0]], volumes=[volume], weights=[[1.0]])
    for center in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="centers must be finite"):
            DiscreteModulusProblem(p=2.0, centers=[[center]], volumes=[1.0], weights=[[1.0]])
    for weight in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            DiscreteModulusProblem(
                p=2.0,
                centers=[[0.0]],
                volumes=[1.0],
                weights=[[weight]],
            )
    with pytest.raises(ValueError, match="outside the grid"):
        DiscreteModulusProblem(
            p=2.0,
            centers=[[0.0]],
            volumes=[1.0],
            weights=scipy.sparse.csr_matrix(([1.0], [2], [0, 1]), shape=(1, 1)),
        )
    with pytest.raises(ValueError, match="nonnegative"):
        DiscreteModulusProblem(p=2.0, centers=[[0.0]], volumes=[1.0], weights=[[-1.0]])


def test_validation_checks_shape_then_range_then_sign():
    # each kind of fault is looked for over all surfaces before the next:
    # the column count, then the cell range, then the sign
    def problem(*surfaces, columns=2):
        data = np.concatenate([w for _, w in surfaces])
        indices = np.concatenate([i for i, _ in surfaces])
        indptr = np.cumsum([0] + [len(i) for i, _ in surfaces])
        weights = scipy.sparse.csr_matrix(
            (data, indices, indptr), shape=(len(surfaces), columns)
        )
        return DiscreteModulusProblem(
            p=2.0, centers=[[0.0], [1.0]], volumes=[1.0, 1.0], weights=weights
        )

    negative = ([0], [-1.0])
    not_a_number = ([0, 1], [1.0, np.nan])
    infinite = ([1], [np.inf])
    outside = ([2], [1.0])
    below = ([-1], [1.0])
    cases = [
        ((negative, outside), {"columns": 3}, "3 columns for 2 cells"),
        ((not_a_number, infinite), {"columns": 1}, "1 columns for 2 cells"),
        ((negative, outside), {}, "outside the grid"),
        ((not_a_number, infinite, below), {}, "outside the grid"),
        ((negative,), {}, "nonnegative"),
        ((not_a_number,), {}, "nonnegative"),
        ((infinite,), {}, "nonnegative"),
    ]
    for surfaces, shape, message in cases:
        with pytest.raises(ValueError, match=message):
            problem(*surfaces, **shape)


def test_surfaces_are_views_into_the_constraint_matrix():
    fam = make_shear([(0.0, 1.0)], [(0.0, 1.0)], [[0.5]]).family
    discretized = discretize_family(fam, 3.0, 8, 24, 32, rng=np.random.default_rng(2))
    for problem in (discretized, random_problem(np.random.default_rng(4))):
        a = problem.constraint_matrix()
        for idx, w in problem.surfaces:
            assert np.shares_memory(idx, a.indices) and np.shares_memory(w, a.data)
        # the per-surface (row, column, value) assembly
        sizes = [idx.size for idx, _ in problem.surfaces]
        rows = np.repeat(np.arange(problem.surface_count), sizes)
        cols = np.concatenate([idx for idx, _ in problem.surfaces])
        vals = np.concatenate([w for _, w in problem.surfaces])
        reference = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=a.shape)
        np.testing.assert_array_equal(a.toarray(), reference.toarray())
        # the shared arrays are read-only, so no caller can rewrite the problem
        assert a.indices.dtype == np.int32 and a.indptr.dtype == np.int32
        with pytest.raises(ValueError, match="read-only"):
            a.data *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            problem.surfaces[0][1][0] = 0.0


def test_problem_keeps_its_own_copy_of_the_weights():
    given = scipy.sparse.csr_matrix([[1.0, 0.0], [2.0, 3.0]])
    given.indices, given.indptr = given.indices.astype(np.int64), given.indptr.astype(np.int64)
    problem = DiscreteModulusProblem(
        p=2.0, centers=[[0.0], [1.0]], volumes=[1.0, 1.0], weights=given
    )
    a = problem.constraint_matrix()
    assert a is problem.weights and a.indices.dtype == np.int32
    for mine, theirs in zip((a.data, a.indices, a.indptr), (given.data, given.indices, given.indptr)):
        assert not np.shares_memory(mine, theirs) and theirs.flags.writeable
    given.data[:] = 7.0
    np.testing.assert_array_equal(a.toarray(), [[1.0, 0.0], [2.0, 3.0]])
    # a dense array gives the same matrix, and the views cannot be replaced
    dense = DiscreteModulusProblem(
        p=2.0, centers=[[0.0], [1.0]], volumes=[1.0, 1.0], weights=[[1.0, 0.0], [2.0, 3.0]]
    )
    assert same_problem(dense, problem)
    with pytest.raises(AttributeError):
        problem.surfaces = ()


def test_constraint_matrix_layout():
    problem = DiscreteModulusProblem(
        p=2.0,
        centers=[[0.25], [0.75]],
        volumes=[0.5, 0.5],
        weights=[[2.0, 3.0]],
    )
    a = problem.constraint_matrix().toarray()
    np.testing.assert_allclose(a, [[2.0, 3.0]])


def test_single_cell_closed_form():
    problem = DiscreteModulusProblem(
        p=2.0,
        centers=[[0.5]],
        volumes=[0.7],
        weights=[[3.0]],
    )
    solution = solve_discrete(problem, tol=1e-9)
    assert solution.objective == pytest.approx(0.7 / 9.0, rel=1e-9)
    assert solution.max_constraint_violation <= 1e-10


def test_single_surface_matches_closed_form():
    rng = np.random.default_rng(21)
    for p in (1.2, 1.5, 2.0, 3.0, 5.0):
        for _ in range(20):
            cells = int(rng.integers(1, 9))
            volumes = rng.uniform(0.2, 2.0, size=cells)
            weights = rng.uniform(0.1, 1.0, size=cells)
            problem = DiscreteModulusProblem(
                p=p,
                centers=rng.uniform(size=(cells, 1)),
                volumes=volumes,
                weights=weights[None],
            )
            solution = solve_discrete(problem, tol=1e-9)
            assert solution.objective == pytest.approx(
                closed_form_single_surface(p, volumes, weights), rel=1e-8
            )


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 5.0])
def test_random_problems_certify_tightly(p):
    rng = np.random.default_rng(int(10 * p))
    for _ in range(25):
        problem = random_problem(
            rng, cells=int(rng.integers(2, 30)), surfaces=int(rng.integers(1, 12)), p=p
        )
        solution = solve_discrete(problem, tol=1e-10)
        # the two bounds may cross by rounding error at an exact optimum
        assert abs(solution.objective - solution.lower_bound) <= 1e-10 * solution.objective
        assert solution.max_constraint_violation <= 1e-10


def test_one_cell_surfaces():
    # each surface sits in one cell, so each constraint fixes that cell:
    # density_c = 1 / (smallest weight in c), and cells no surface meets stay 0
    volumes = np.array([0.5, 1.0, 2.0, 0.25])
    weights = [[2.0, 0.0, 0.0, 0.0], [4.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0]]
    for p in (1.5, 3.0):
        problem = DiscreteModulusProblem(
            p=p, centers=np.zeros((4, 1)), volumes=volumes, weights=weights
        )
        solution = solve_discrete(problem, tol=1e-10)
        np.testing.assert_allclose(solution.density, [0.5, 0.0, 2.0, 0.0], rtol=1e-9)
        assert solution.objective == pytest.approx(0.5 * 0.5**p + 2.0 * 2.0**p, rel=1e-9)


def test_redundant_surface_ends_at_the_bound():
    # the last surface carries twice the first one's weights, so every
    # admissible density meets it with slack and its multiplier ends at
    # the bound; cell 5, which only it reaches, then gets no density
    rng = np.random.default_rng(31)
    first, second = np.zeros(6), np.zeros(6)
    first[:3] = rng.uniform(0.2, 1.0, 3)
    second[2:5] = rng.uniform(0.2, 1.0, 3)
    redundant = 2.0 * first
    redundant[5] = 1.0
    volumes = rng.uniform(0.5, 1.5, 6)
    for p in (1.2, 2.0, 5.0):
        def solve(*surfaces):
            problem = DiscreteModulusProblem(
                p=p, centers=np.zeros((6, 1)), volumes=volumes, weights=np.array(surfaces)
            )
            return solve_discrete(problem, tol=1e-10)

        solution = solve(first, second, redundant)
        assert solution.density[5] == 0.0
        assert solution.objective == pytest.approx(
            solve(first, second).objective, rel=1e-9
        )


def test_duality_gap_certificate():
    rng = np.random.default_rng(3)
    problem = random_problem(rng)
    solution = solve_discrete(problem, tol=1e-8)
    assert solution.lower_bound <= solution.objective + 1e-12
    assert (solution.objective - solution.lower_bound) <= 1e-8 * solution.objective


def test_solver_stops_at_the_certified_gap():
    # a curved family: affine rungs certify at the first rescale, this
    # one needs Newton steps
    fam = make_polar_annulus(1.0, 2.0, mode="circular").family
    problem = discretize_family(fam, 2.0, 6, 18, 24)
    loose = solve_discrete(problem, tol=1e-6)
    tight = solve_discrete(problem, tol=1e-10)
    assert loose.iterations < tight.iterations
    assert loose.objective == pytest.approx(tight.objective, rel=1e-6)
    for solution, tol in ((loose, 1e-6), (tight, 1e-10)):
        assert solution.lower_bound <= solution.objective
        assert (solution.objective - solution.lower_bound) <= tol * solution.objective
        assert solution.max_constraint_violation <= tol


@pytest.mark.parametrize("cells", [8, 16])
@pytest.mark.parametrize("slant", [0.5, 1.0])
def test_shear_rungs_certify_tightly(cells, slant):
    # 3x-redundant surfaces make these duals ill-conditioned
    fam = make_shear([(0.0, 1.0)], [(0.0, 1.0)], [[slant]]).family
    problem = discretize_family(
        fam, 3.0, cells, 3 * cells, 4 * cells, rng=np.random.default_rng(1)
    )
    solution = solve_discrete(problem, tol=1e-10)
    assert solution.objective - solution.lower_bound <= 1e-10 * solution.objective
    assert solution.max_constraint_violation <= 1e-10


def test_cross_validate_at_a_tight_tolerance():
    # cross_validate's ladder, solved at 1e-8 instead of its 1e-6
    entry = make_shear([(0.0, 1.0)], [(0.0, 1.0)], [[1.0]])
    expected = entry.expected_modulus(3.0)
    rng = np.random.default_rng(1)
    gaps = []
    for cells in (8, 16):
        problem = discretize_family(entry.family, 3.0, cells, 3 * cells, 4 * cells, rng=rng)
        objective = solve_discrete(problem, tol=1e-8).objective
        gaps.append(abs(objective - expected) / expected)
    assert gaps[1] < gaps[0]


def test_more_surfaces_cannot_shrink_the_modulus():
    rng = np.random.default_rng(5)
    for _ in range(20):
        problem = random_problem(rng, cells=10, surfaces=5)
        subset = DiscreteModulusProblem(
            p=problem.p,
            centers=problem.centers,
            volumes=problem.volumes,
            weights=problem.weights[:2],
        )
        full = solve_discrete(problem, tol=1e-8).objective
        partial = solve_discrete(subset, tol=1e-8).objective
        assert partial <= full * (1.0 + 1e-7)


def test_union_subadditivity():
    # joined families cost at most the sum: (rho1^p + rho2^p)^(1/p) is admissible
    rng = np.random.default_rng(12)
    for _ in range(10):
        base = random_problem(rng, cells=9, surfaces=3)
        extra = random_problem(rng, cells=9, surfaces=3)
        union = DiscreteModulusProblem(
            p=base.p,
            centers=base.centers,
            volumes=base.volumes,
            weights=scipy.sparse.vstack([base.weights, extra.weights]),
        )
        a = solve_discrete(base, tol=1e-8).objective
        b = solve_discrete(
            DiscreteModulusProblem(
                p=base.p,
                centers=base.centers,
                volumes=base.volumes,
                weights=extra.weights,
            ),
            tol=1e-8,
        ).objective
        assert solve_discrete(union, tol=1e-8).objective <= (a + b) * (1.0 + 1e-7)


def test_weight_scaling_law():
    # scaling all weights by c scales the optimum by c^(-p), however far
    # c is from one
    rng = np.random.default_rng(17)
    for p in (1.5, 2.0, 3.0):
        problem = random_problem(rng, p=p)
        base = solve_discrete(problem).objective
        for factor in (2.0, 1e-50, 1e100):
            scaled = DiscreteModulusProblem(
                p=p,
                centers=problem.centers,
                volumes=problem.volumes,
                weights=factor * problem.weights,
            )
            assert solve_discrete(scaled).objective == pytest.approx(
                base * factor**-p, rel=1e-6
            )


def test_volume_scaling_law():
    # volumes of 1e-300 overflowed the densities, or the first
    # certificate, while the solve ran in the given units
    rng = np.random.default_rng(19)
    for p in (1.5, 2.0, 3.0):
        problem = random_problem(rng, p=p)
        base = solve_discrete(problem, tol=1e-8).objective
        for factor in (3.0, 1e-300, 1e250):
            scaled = DiscreteModulusProblem(
                p=p,
                centers=problem.centers,
                volumes=factor * problem.volumes,
                weights=problem.weights,
            )
            assert solve_discrete(scaled, tol=1e-8).objective == pytest.approx(
                factor * base, rel=1e-7
            )


def test_cell_permutation_invariance():
    rng = np.random.default_rng(23)
    problem = random_problem(rng)
    perm = rng.permutation(problem.cell_count)
    permuted = DiscreteModulusProblem(
        p=problem.p,
        centers=problem.centers[perm],
        volumes=problem.volumes[perm],
        weights=problem.weights[:, perm],
    )
    assert solve_discrete(permuted).objective == pytest.approx(
        solve_discrete(problem).objective, rel=1e-9
    )


def test_infeasible_surface_raises():
    problem = DiscreteModulusProblem(
        p=2.0,
        centers=[[0.5]],
        volumes=[1.0],
        weights=np.zeros((1, 1)),
    )
    with pytest.raises(InfeasibleSurface):
        solve_discrete(problem)
    # the first weightless surface is named, empty or all zero
    problem = DiscreteModulusProblem(
        p=2.0,
        centers=[[0.5]],
        volumes=[1.0],
        weights=scipy.sparse.csr_matrix(([1.0, 0.0], [0, 0], [0, 1, 2, 2]), shape=(3, 1)),
    )
    with pytest.raises(InfeasibleSurface, match="surface 1 "):
        solve_discrete(problem)


def test_program_without_surfaces_has_zero_optimum():
    problem = DiscreteModulusProblem(p=2.0, centers=[[0.0]], volumes=[1.0], weights=np.zeros((0, 1)))
    solution = solve_discrete(problem)
    np.testing.assert_array_equal(solution.density, [0.0])
    assert solution.objective == 0.0
    assert solution.lower_bound == 0.0
    assert solution.max_constraint_violation == 0.0
    assert solution.iterations == 0


def test_iteration_cap_raises():
    problem = DiscreteModulusProblem(
        p=2.0,
        centers=[[0.25], [0.75]],
        volumes=[0.5, 0.5],
        weights=[[3.0, 1.0]],
    )
    with pytest.raises(NoConvergence):
        solve_discrete(problem, max_iters=0)


@pytest.mark.parametrize(
    "limits, message",
    [({"tol": bad}, "tol must be finite and > 0") for bad in (np.nan, np.inf, 0.0, -1e-6)]
    + [({"max_iters": bad}, "max_iters must be an integer >= 0") for bad in (-1, True, 2.5)],
)
def test_solver_limits_are_checked_before_any_work(limits, message):
    # a program without surfaces would otherwise return at once
    empty = DiscreteModulusProblem(p=2.0, centers=[[0.0]], volumes=[1.0], weights=np.zeros((0, 1)))
    with pytest.raises(ValueError, match=message):
        solve_discrete(empty, **limits)


def test_discretize_weight_totals():
    # every sampled surface deposits its full measure: flat surfaces carry
    # vol(V), rays carry r1-r0, circles carry 2*pi*radius
    flat = make_parallel([(0.0, 1.0)], [(0.0, 3.0)]).family
    problem = discretize_family(flat, 2.0, cells_per_axis=6, surfaces_count=5, samples_per_surface=40)
    for _, w in problem.surfaces:
        assert w.sum() == pytest.approx(3.0, rel=1e-12)

    rays = make_polar_annulus(1.0, 2.0, mode="radial").family
    problem = discretize_family(rays, 2.0, cells_per_axis=6, surfaces_count=5, samples_per_surface=40)
    for _, w in problem.surfaces:
        assert w.sum() == pytest.approx(1.0, rel=1e-12)

    circles = make_polar_annulus(1.0, 2.0, mode="circular").family
    problem = discretize_family(circles, 2.0, cells_per_axis=6, surfaces_count=5, samples_per_surface=60)
    radii = circles.param_box.grid(5)[:, 0]
    for (_, w), t in zip(problem.surfaces, radii):
        assert w.sum() == pytest.approx(2.0 * np.pi * t, rel=1e-12)


def test_discretize_is_reproducible():
    fam = make_parallel([(0.0, 1.0)], [(0.0, 1.0)]).family
    one = discretize_family(fam, 2.0, 8, 24, 32, rng=np.random.default_rng(5))
    two = discretize_family(fam, 2.0, 8, 24, 32, rng=np.random.default_rng(5))
    other = discretize_family(fam, 2.0, 8, 24, 32, rng=np.random.default_rng(6))
    assert same_problem(one, two)
    assert not same_problem(one, other)


def test_discretize_validates_counts():
    fam = make_parallel([(0.0, 1.0)], [(0.0, 1.0)]).family
    with pytest.raises(ValueError):
        discretize_family(fam, 2.0, 0, 3, 4)
    with pytest.raises(ValueError):
        discretize_family(fam, 2.0, 4, 0, 4)
    with pytest.raises(ValueError):
        discretize_family(fam, 2.0, 4, 3, 0)


def test_counts_must_be_integers():
    # as QuadratureScheme's: bools and non-integral values are rejected, numpy integers kept
    fam = make_parallel([(0.0, 1.0)], [(0.0, 1.0)]).family
    for bad in (True, 2.5, 3.0, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="per_axis must be an integer"):
            fam.param_box.grid(bad)
        for position in range(3):
            counts = [4, 3, 4]
            counts[position] = bad
            with pytest.raises(ValueError, match="must be an integer"):
                discretize_family(fam, 2.0, *counts)
        with pytest.raises(ValueError, match="grid resolution must be an integer"):
            cross_validate(fam, 2.0, 1.0, [4, bad])
        for override in ("surfaces_count", "samples_per_surface"):
            with pytest.raises(ValueError, match=f"{override} must be an integer"):
                cross_validate(fam, 2.0, 1.0, [4], **{override: bad})
    np.testing.assert_array_equal(fam.param_box.grid(np.int64(3)), fam.param_box.grid(3))
    counts = (np.int32(4), np.int64(3), np.int16(4))
    assert same_problem(discretize_family(fam, 2.0, *counts), discretize_family(fam, 2.0, 4, 3, 4))
    assert cross_validate(fam, 2.0, 1.0, [np.int64(4)]) == cross_validate(fam, 2.0, 1.0, [4])


_UNIT_BOX = [(0.0, 1.0)]
AFFINE_ENTRIES = {
    "parallel (2,1)": lambda: make_parallel(_UNIT_BOX * 2, _UNIT_BOX),
    "parallel (1,2)": lambda: make_parallel(_UNIT_BOX, _UNIT_BOX * 2),
    "shear (2,1)": lambda: make_shear(_UNIT_BOX * 2, _UNIT_BOX, [[0.5], [0.5]]),
    "shear (1,2)": lambda: make_shear(_UNIT_BOX, _UNIT_BOX * 2, [[0.5, 0.5]]),
    "shear (2,2)": lambda: make_shear(
        _UNIT_BOX * 2, _UNIT_BOX * 2, [[0.3, 0.1], [-0.2, 0.5]]
    ),
}


@pytest.mark.parametrize(
    "name, cells",
    [(name, cells) for name in list(AFFINE_ENTRIES)[:4] for cells in (8, 16)]
    + [("shear (2,2)", 6)],
)
def test_affine_rungs_are_exact_and_certify_at_the_rescale(name, cells):
    # Pushforward volumes and the surface weights come from one measure and
    # the area factor over |det J| is constant, so the uniform multiplier
    # is dual-optimal: the first ray rescale certifies, with no Newton step.
    entry = AFFINE_ENTRIES[name]()
    p = 3.0
    problem = discretize_family(
        entry.family, p, cells, 3 * cells, 4 * cells, rng=np.random.default_rng(1)
    )
    solution = solve_discrete(problem, tol=1e-9)
    assert solution.iterations == 1
    assert solution.objective == pytest.approx(entry.expected_modulus(p), rel=1e-9)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("mode", ["radial", "circular"])
def test_curved_rungs_within_one_percent(mode, p):
    entry = make_polar_annulus(1.0, 2.0, mode=mode)
    rows = cross_validate(
        entry.family, p, entry.expected_modulus(p), [16, 32], rng=np.random.default_rng(1)
    )
    assert rows[1].relative_gap < rows[0].relative_gap
    assert rows[1].relative_gap <= 0.01


def test_weight_in_a_cell_without_volume_raises():
    # (x, y) -> (x y, y): |det J| = |y| vanishes on y = 0, where the area
    # factor |(x, 1)| does not.  With three samples per surface those at
    # y = 0 land alone in the middle cell, row-major index 4.
    fam = ParametrizedFamily(
        n=2,
        m=1,
        param_box=BoxDomain([0.0], [1.0]),
        surface_box=BoxDomain([-1.0], [1.0]),
        map=lambda x, y: np.concatenate([x * y, y], axis=-1),
        jacobian=lambda x, y: np.stack(
            [np.concatenate([y, x], -1), np.concatenate([np.zeros_like(y), np.ones_like(y)], -1)],
            -2,
        ),
    )
    with pytest.raises(DegenerateJacobian, match="cell 4 holds surface weight"):
        discretize_family(fam, 2.0, 3, 3, 3)


def test_flat_family_converges_within_band():
    fam = make_parallel([(0.0, 1.0)], [(0.0, 1.0)]).family
    problem = discretize_family(
        fam, 2.0, cells_per_axis=64, surfaces_count=192, samples_per_surface=256
    )
    solution = solve_discrete(problem, max_iters=20000)
    assert 0.95 <= solution.objective <= 1.05


def test_cross_validate_ladder():
    fam = make_parallel([(0.0, 1.0)], [(0.0, 1.0)]).family
    rows = cross_validate(fam, 2.0, 1.0, [8, 16])
    assert [row.resolution for row in rows] == [8, 16]
    assert all(isinstance(row, CrossValidationRow) for row in rows)
    assert rows[1].relative_gap < rows[0].relative_gap
    assert rows[1].relative_gap < 0.10


def test_cross_validate_rejects_nonpositive_reference():
    fam = make_parallel([(0.0, 1.0)], [(0.0, 1.0)]).family
    with pytest.raises(ValueError):
        cross_validate(fam, 2.0, 0.0, [4])


def test_cross_validate_passes_explicit_counts_on():
    # only a missing count takes the default; zero or negative ones are rejected
    fam = make_parallel([(0.0, 1.0)], [(0.0, 1.0)]).family
    for counts in ({"surfaces_count": 0}, {"samples_per_surface": 0}, {"surfaces_count": -1}):
        with pytest.raises(ValueError, match=">= 1"):
            cross_validate(fam, 2.0, 1.0, [4], **counts)
    rows = cross_validate(fam, 2.0, 1.0, [4], surfaces_count=None, samples_per_surface=None)
    assert rows == cross_validate(fam, 2.0, 1.0, [4], surfaces_count=12, samples_per_surface=16)


def _cubed_family():
    """(x, y) -> (x, y^3): the area factor 3 y^2 vanishes at y = 0."""
    return ParametrizedFamily(
        n=2,
        m=1,
        param_box=BoxDomain([0.0], [1.0]),
        surface_box=BoxDomain([-1.0], [1.0]),
        map=lambda x, y: np.concatenate([x, y**3], axis=-1),
        jacobian=lambda x, y: np.stack(
            [
                np.stack([np.ones_like(x[..., 0]), np.zeros_like(x[..., 0])], -1),
                np.stack([np.zeros_like(y[..., 0]), 3.0 * y[..., 0] ** 2], -1),
            ],
            -2,
        ),
    )


def _arch_family(n):
    """(x, y) -> (x, sin y_1, y_2, ...) with y_1 in (0, 3).

    The top of the image, sin y_1 = 1, falls between the bounding-box
    probes, so without padding the samples nearest y_1 = pi/2 land
    above the grid and are clipped onto its edge cells.
    """

    def mapping(x, y):
        z = np.concatenate([x, y], axis=-1)
        z[..., 1] = np.sin(y[..., 0])
        return z

    def jacobian(x, y):
        jac = np.zeros(x.shape[:-1] + (n, n)) + np.eye(n)
        jac[..., 1, 1] = np.cos(y[..., 0])
        return jac

    return ParametrizedFamily(
        n=n,
        m=n - 1,
        param_box=BoxDomain([0.0], [1.0]),
        surface_box=BoxDomain([0.0] * (n - 1), [3.0] + [1.0] * (n - 2)),
        map=mapping,
        jacobian=jacobian,
    )


def _recorded(fam):
    """``fam`` with every map and Jacobian value it returns appended to lists."""
    images, jacobians = [], []

    def record(fn, values):
        def wrapper(x, y):
            out = np.array(fn(x, y), dtype=float)
            values.append(out)
            return out

        return wrapper

    recording = replace(fam, map=record(fam.map, images), jacobian=record(fam.jacobian, jacobians))
    return recording, images, jacobians


def _reference_binning(fam, images, jacobians, cells, samples, padding):
    """The problem's arrays from the recorded kernel values, binned one sample at a time.

    The first map call is the bounding-box probe; the rest are the
    samples, surface by surface.  Each sample adds its area factor to its
    (surface, cell) bin and ``np.linalg.det`` of its Jacobian, times its
    parameter measure, to its cell's volume; cells left without volume
    are dropped and the rest renumbered in order.  Returns the CSR arrays,
    the volumes, the centers and a count of the clipped samples (cell
    coordinates outside the grid), the zero-area samples, the bins
    holding only those, and the cells that samples reach but give no volume.
    """
    probe = images[0]
    lo, hi = probe.min(axis=0), probe.max(axis=0)
    span = np.where(hi - lo > 0.0, hi - lo, 1.0)
    lo, hi = lo - padding * span, hi + padding * span
    widths = (hi - lo) / cells
    points = np.concatenate(images[1:])
    stack = np.concatenate(jacobians)
    areas = stacked_norm(stack[:, :, fam.n - fam.m :])
    per_surface = samples**fam.m
    sample_volume = fam.surface_box.volume / per_surface
    measure = sample_volume * fam.param_box.volume / (len(points) // per_surface)
    bins, volumes, clipped = {}, {}, 0
    for i, (point, jacobian, area) in enumerate(zip(points, stack, areas)):
        raw = ((point - lo) / widths).astype(int)
        clipped += int(np.any((raw < 0) | (raw >= cells)))
        cell = int(np.ravel_multi_index(tuple(np.clip(raw, 0, cells - 1)), (cells,) * fam.n))
        key = (i // per_surface, cell)
        bins[key] = bins.get(key, 0.0) + float(area) * sample_volume
        volumes[cell] = volumes.get(cell, 0.0) + abs(float(np.linalg.det(jacobian))) * measure
    kept = sorted(cell for cell, volume in volumes.items() if volume != 0.0)
    renumber = {cell: i for i, cell in enumerate(kept)}
    rows = [[] for _ in range(len(points) // per_surface)]
    for (surface, cell), weight in sorted(bins.items()):
        if weight != 0.0:
            rows[surface].append((renumber[cell], weight))
    data = np.array([w for row in rows for _, w in row])
    indices = np.array([c for row in rows for c, _ in row])
    indptr = np.cumsum([0] + [len(row) for row in rows])
    centers = lo + widths * (np.array(np.unravel_index(kept, (cells,) * fam.n)).T + 0.5)
    counts = {
        "clipped": clipped,
        "zero areas": int(np.sum(areas == 0.0)),
        "zero bins": sum(w == 0.0 for w in bins.values()),
        "zero volumes": len(volumes) - len(kept),
    }
    return (data, indices, indptr), np.array([volumes[c] for c in kept]), centers, counts


_UNIT = [(0.0, 1.0)]
# family, cells per axis, surfaces, samples per surface axis, padding, and
# the counts of the reference binning that must be nonzero at midpoints
BINNING_CASES = {
    "shear n=2": (lambda: make_shear(_UNIT, [(0.0, 1.5)], [[0.7]]).family, 6, 9, 13, 0.02, ()),
    "rays, two blocks": (lambda: make_polar_annulus(1.0, 2.0).family, 16, 48, 256, 0.02, ()),
    "parallel n=3": (lambda: make_parallel(_UNIT + [(0.0, 2.0)], _UNIT).family, 5, 6, 7, 0.02, ()),
    "shear n=3": (
        lambda: make_shear(_UNIT, _UNIT + [(0.5, 1.0)], [[0.3, -0.8]]).family, 5, 7, 6, 0.02, ()
    ),
    "shear n=4": (
        lambda: make_shear(_UNIT * 2, _UNIT * 2, [[0.3, 0.1], [-0.2, 0.5]]).family,
        4, 5, 5, 0.02, (),
    ),
    # y = 0 is a node: its sample shares a cell, or has one to itself
    "zero areas": (_cubed_family, 6, 7, 15, 0.02, ("zero areas",)),
    "zero-only bins": (
        _cubed_family, 16, 5, 3, 0.02, ("zero areas", "zero bins", "zero volumes")
    ),
    "arch n=2, no padding": (lambda: _arch_family(2), 8, 6, 20, 0.0, ("clipped",)),
    "arch n=3, no padding": (lambda: _arch_family(3), 4, 5, 20, 0.0, ("clipped",)),
}


@pytest.mark.parametrize("jitter", [None, 11], ids=["midpoints", "jittered"])
@pytest.mark.parametrize("case", list(BINNING_CASES))
def test_discretize_matches_an_independent_binning(case, jitter, monkeypatch):
    build, cells, surfaces, samples, padding, reached = BINNING_CASES[case]
    monkeypatch.setattr(oracle_module, "_PADDING", padding)
    fam, images, jacobians = _recorded(build())
    rng = None if jitter is None else np.random.default_rng(jitter)
    problem = discretize_family(fam, 2.0, cells, surfaces, samples, rng=rng)
    want, volumes, centers, counts = _reference_binning(
        fam, images, jacobians, cells, samples, padding
    )
    weights = problem.weights
    for got, expected in zip((weights.data, weights.indices, weights.indptr), want):
        np.testing.assert_array_equal(got, expected)
    # the kernel's closed-form det and its per-block sums move the last bits
    np.testing.assert_allclose(problem.volumes, volumes, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(problem.centers, centers, rtol=1e-12, atol=0.0)
    if jitter is None:
        assert all(counts[name] > 0 for name in reached), counts


def test_solve_discrete_reports_a_stalled_projection_arc():
    # with a tolerance below rounding, the duality gap stops a few ulps
    # above zero, where no step along the projection arc makes progress
    fam = make_polar_annulus(1.0, 2.0, mode="circular").family
    problem = discretize_family(fam, 1.5, 2, 6, 8)
    with pytest.raises(NoConvergence, match="no step along the projection arc makes progress"):
        solve_discrete(problem, tol=1e-300, max_iters=2000)

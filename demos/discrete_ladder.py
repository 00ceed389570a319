"""Grid-based values closing in on the analytic modulus from above.

Independent of all quadrature, the modulus has a discrete counterpart:
chop a bounding box into cells, sample each surface, and minimize the
p-energy of a cell density forced to accumulate at least 1 along every
sampled surface.  Each cell's volume is the pushforward volume of the
samples in it.  On the curved annulus family refining the grid walks the
discrete value down onto the analytic one; on the affine parallel family
every rung already lands on it.  The solver also certifies itself with
a duality gap.

Run:  python3 demos/discrete_ladder.py
"""

import numpy as np

from surfmod import (
    cross_validate,
    discretize_family,
    make_parallel,
    make_polar_annulus,
    solve_discrete,
)

p = 2.0
rng = np.random.default_rng(4)
curved = make_polar_annulus(1.0, 2.0, mode="radial")
entry = make_parallel((0.0, 1.0), (0.0, 2.0))
for name, ladder_entry in (("annulus-radial", curved), ("parallel", entry)):
    analytic = ladder_entry.expected_modulus(p)
    print(f"{name} family, p = {p}, analytic modulus = {analytic:.12g}")
    print(f"{'cells/axis':>10} {'discrete':>14} {'rel gap':>10}")
    for row in cross_validate(ladder_entry.family, p, analytic, (8, 16, 32, 64), rng=rng):
        print(
            f"{row.resolution:>10} {row.discrete_modulus:>14.9f} "
            f"{row.relative_gap:>10.2e}"
        )
    print()

problem = discretize_family(
    entry.family, p, cells_per_axis=24, surfaces_count=72,
    samples_per_surface=96, rng=np.random.default_rng(9),
)
solution = solve_discrete(problem)
print(f"one rung in detail ({len(problem.volumes)} cells, "
      f"{len(problem.surfaces)} sampled surfaces):")
print(f"  discrete modulus    {solution.objective:.9f}")
print(f"  certified lower bnd {solution.lower_bound:.9f}")
gap = (solution.objective - solution.lower_bound) / solution.objective
print(f"  duality gap         {gap:.2e}")
print(f"  solver iterations   {solution.iterations}")

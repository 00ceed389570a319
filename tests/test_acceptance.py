"""Acceptance suite: every criterion in one place, one verdict line each.

Each test computes the worst deviation for its criterion, prints a
single PASS/FAIL line with the measured value and the tolerance, and
then asserts.  Run with -s to see the lines for passing criteria too.
"""

import time
from dataclasses import replace

import numpy as np

from surfmod import (
    QuadratureScheme,
    admissibility_check,
    coarea_check,
    conjugate_exponent,
    cross_validate,
    extremal_density,
    extremality_probe,
    generalized_norm,
    key_relation_residual,
    make_parallel,
    make_polar_annulus,
    make_pq_map,
    make_shear,
    modulus_p,
    solve_discrete,
    standard_entries,
    submersion_modulus,
    verify_factorization,
)
from surfmod.oracle import DiscreteModulusProblem

from _oracles import minor_sum_norm, well_conditioned

EXPONENTS = (1.5, 2.0, 3.0)
LIGHT = QuadratureScheme(order=4, subdivisions=1)
MEDIUM = QuadratureScheme(order=10, subdivisions=3)
ACCURATE = QuadratureScheme(order=12, subdivisions=4)


def verdict(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def random_box(rng, dim):
    lower = rng.uniform(-2.0, 1.0, size=dim)
    return [(lo, lo + w) for lo, w in zip(lower, rng.uniform(0.5, 3.0, size=dim))]


def test_criterion_01_parallel_families():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        dims = [(1, 1), (1, 2), (2, 1)][int(rng.integers(3))]
        entry = make_parallel(random_box(rng, dims[0]), random_box(rng, dims[1]))
        for p in EXPONENTS:
            got = modulus_p(entry.family, p, LIGHT).modulus
            want = entry.expected_modulus(p)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - started
    verdict(
        "criterion-01 parallel closed form",
        worst <= 1e-10 and elapsed < 1.0,
        f"worst relative error {worst:.2e} (tol 1e-10) in {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_02_shear_families():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        ku, kv = [(1, 1), (1, 2), (2, 1), (2, 2)][int(rng.integers(4))]
        entry = make_shear(
            random_box(rng, ku),
            random_box(rng, kv),
            rng.uniform(-2.0, 2.0, size=(ku, kv)),
        )
        for p in EXPONENTS:
            got = modulus_p(entry.family, p, LIGHT).modulus
            want = entry.expected_modulus(p)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - started
    verdict(
        "criterion-02 shear closed form",
        worst <= 1e-8 and elapsed < 5.0,
        f"worst relative error {worst:.2e} (tol 1e-8) in {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_03_annulus_families():
    worst = 0.0
    worst_product = 0.0
    for r0, r1 in ((1.0, 2.0), (0.5, 3.0), (2.0, 2.5)):
        radial = make_polar_annulus(r0, r1, mode="radial")
        circular = make_polar_annulus(r0, r1, mode="circular")
        for entry in (radial, circular):
            for p in EXPONENTS:
                got = modulus_p(entry.family, p, ACCURATE).modulus
                want = entry.expected_modulus(p)
                worst = max(worst, abs(got - want) / want)
        product = (
            modulus_p(radial.family, 2.0, ACCURATE).modulus
            * modulus_p(circular.family, 2.0, ACCURATE).modulus
        )
        worst_product = max(worst_product, abs(product - 1.0))
    verdict(
        "criterion-03 annulus closed forms",
        worst <= 1e-7 and worst_product <= 1e-10,
        f"worst relative error {worst:.2e} (tol 1e-7), "
        f"worst reciprocal defect {worst_product:.2e} (tol 1e-10)",
    )


def test_criterion_04_norm_factorization():
    rng = np.random.default_rng(404)
    worst_fact = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        lhs, rhs = verify_factorization(well_conditioned(rng, n), m)
        worst_fact = max(worst_fact, abs(lhs - rhs) / max(1.0, abs(lhs)))
    worst_norm = 0.0
    for _ in range(200):
        a = rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 5))))
        reference = minor_sum_norm(a)
        worst_norm = max(
            worst_norm, abs(generalized_norm(a) - reference) / max(1.0, reference)
        )
    verdict(
        "criterion-04 companion-block factorization",
        worst_fact <= 1e-9 and worst_norm <= 1e-10,
        f"worst factorization defect {worst_fact:.2e} (tol 1e-9), "
        f"worst norm defect vs minor enumeration {worst_norm:.2e} (tol 1e-10)",
    )


def test_criterion_05_area_factor_identity_and_routes():
    rng = np.random.default_rng(505)
    worst_analytic = 0.0
    worst_fd = 0.0
    worst_route = 0.0
    for entry in standard_entries():
        fam, sub = entry.family, entry.submersion
        bare_fam = replace(fam, jacobian=None)
        bare_sub = replace(sub, jacobian=None)
        for _ in range(100):
            x = fam.param_box.lower + fam.param_box.widths * rng.uniform(
                0.05, 0.95, size=fam.param_box.dim
            )
            y = fam.surface_box.lower + fam.surface_box.widths * rng.uniform(
                0.05, 0.95, size=fam.surface_box.dim
            )
            worst_analytic = max(worst_analytic, key_relation_residual(fam, sub, x, y))
            worst_fd = max(worst_fd, key_relation_residual(bare_fam, bare_sub, x, y))
        for p in EXPONENTS:
            direct = modulus_p(fam, p, MEDIUM).modulus
            level = submersion_modulus(sub, fam, p, MEDIUM).modulus
            worst_route = max(worst_route, abs(level - direct) / direct)
    verdict(
        "criterion-05 area-factor identity and route agreement",
        worst_analytic <= 1e-8 and worst_fd <= 1e-5 and worst_route <= 1e-7,
        f"worst analytic residual {worst_analytic:.2e} (tol 1e-8), "
        f"worst finite-difference residual {worst_fd:.2e} (tol 1e-5), "
        f"worst route disagreement {worst_route:.2e} (tol 1e-7)",
    )


def test_criterion_06_admissibility():
    worst = 0.0
    for entry in standard_entries():
        density = extremal_density(entry.family, 2.0, MEDIUM)
        samples = entry.family.param_box.grid(32)
        for _, integral in admissibility_check(entry.family, density, MEDIUM, samples):
            worst = max(worst, abs(integral - 1.0))
    verdict(
        "criterion-06 extremal density admissibility",
        worst <= 1e-6,
        f"worst surface-integral deviation {worst:.2e} over 32 samples per family (tol 1e-6)",
    )


def test_criterion_07_coarea_identity():
    integrands = (
        lambda z: 1.0,
        lambda z: float(np.dot(z, z)),
        lambda z: float(np.prod(1.0 + 0.25 * z)),
    )
    worst = 0.0
    for entry in standard_entries():
        for integrand in integrands:
            lhs, rhs = coarea_check(entry.family, entry.submersion, integrand, MEDIUM)
            scale = max(abs(lhs), abs(rhs), 1e-30)
            worst = max(worst, abs(lhs - rhs) / scale)
    verdict(
        "criterion-07 change-of-variables identity",
        worst <= 1e-8,
        f"worst two-sided deviation {worst:.2e} over 3 integrands per family (tol 1e-8)",
    )


def test_criterion_08_extremality():
    worst = np.inf
    for entry in standard_entries():
        for p in EXPONENTS:
            gap = extremality_probe(entry.family, p, MEDIUM, trials=50, seed=808)
            worst = min(worst, gap)
    verdict(
        "criterion-08 extremality against random competitors",
        worst >= -1e-9,
        f"worst competitor energy gap {worst:.2e} over 50 trials per family (floor -1e-9)",
    )


def replace_weights(problem, weights):
    return DiscreteModulusProblem(
        p=problem.p,
        centers=problem.centers,
        volumes=problem.volumes,
        weights=weights,
    )


def criterion_09_problems():
    """Criterion 09's 100 random programs, each with its weight factor."""
    rng = np.random.default_rng(909)
    for _ in range(100):
        cells = int(rng.integers(4, 12))
        p = float(rng.uniform(1.3, 3.5))
        volumes = rng.uniform(0.2, 1.5, size=cells)
        weights = np.zeros((int(rng.integers(2, 5)), cells))
        for row in weights:
            count = int(rng.integers(2, cells + 1))
            idx = np.sort(rng.choice(cells, size=count, replace=False))
            row[idx] = rng.uniform(0.2, 1.0, size=count)
        problem = DiscreteModulusProblem(
            p=p,
            centers=rng.uniform(size=(cells, 1)),
            volumes=volumes,
            weights=weights,
        )
        yield problem, float(rng.uniform(0.5, 2.0))


def test_criterion_09_discrete_oracle():
    started = time.perf_counter()
    ladder = (32, 64, 128)
    finals = {}
    # Pushforward volumes make the affine rungs exact (measured <= 2e-15);
    # annulus-radial converges from above, 4.48e-5 at 128 cells.
    bands = {"parallel": 1e-6, "annulus-radial": 5e-5, "shear": 1e-6}
    cases = (
        ("parallel", make_parallel([(0.0, 1.0)], [(0.0, 1.0)])),
        ("annulus-radial", make_polar_annulus(1.0, 2.0, mode="radial")),
        ("shear", make_shear([(0.0, 1.0)], [(0.0, 1.0)], [[1.0]])),
    )
    for name, entry in cases:
        rows = cross_validate(
            entry.family, 2.0, entry.expected_modulus(2.0), ladder
        )
        finals[name] = rows[-1].relative_gap

    worst_monotone = 0.0
    worst_scaling = 0.0
    for problem, factor in criterion_09_problems():
        # A feasible full objective can only err upward, which the check
        # forgives; both solves at tol 1e-8 leave it a tenfold margin.
        full = solve_discrete(problem, tol=1e-8).objective
        partial = solve_discrete(
            replace_weights(problem, problem.weights[:1]), tol=1e-8
        ).objective
        worst_monotone = max(worst_monotone, (partial - full) / full)
        scaled = solve_discrete(
            replace_weights(problem, factor * problem.weights)
        ).objective
        expected = full * factor**-problem.p
        worst_scaling = max(worst_scaling, abs(scaled - expected) / expected)
    elapsed = time.perf_counter() - started
    verdict(
        "criterion-09 discrete oracle agreement",
        all(finals[name] <= band for name, band in bands.items())
        and worst_monotone <= 1e-7 and worst_scaling <= 1e-6 and elapsed < 120.0,
        "final ladder gaps "
        + ", ".join(f"{k} {v:.2e} (band {bands[k]:.0e})" for k, v in finals.items())
        + f", surface-removal slack {worst_monotone:.2e}, "
        f"weight-scaling defect {worst_scaling:.2e} (tol 1e-6) in {elapsed:.0f}s (limit 120s)",
    )


def test_criterion_09_programs_certify_tightly():
    # each program reaches a certified gap of 1e-10, far below the
    # default tolerance
    for problem, _ in criterion_09_problems():
        solution = solve_discrete(problem, tol=1e-10)
        assert solution.objective - solution.lower_bound <= 1e-10 * solution.objective
        assert solution.max_constraint_violation <= 1e-10


def test_criterion_10_reciprocal_products():
    worst = 0.0
    for p in EXPONENTS:
        q = conjugate_exponent(p)
        for entry in (make_parallel([(0.0, 2.0)], [(0.0, 3.0)]), make_pq_map(p)):
            direct = modulus_p(entry.family, p, MEDIUM).modulus
            crossed = modulus_p(entry.transverse.family, q, MEDIUM).modulus
            worst = max(worst, abs(direct ** (1.0 / p) * crossed ** (1.0 / q) - 1.0))
    verdict(
        "criterion-10 conjugate-exponent reciprocity",
        worst <= 1e-8,
        f"worst product defect {worst:.2e} (tol 1e-8)",
    )

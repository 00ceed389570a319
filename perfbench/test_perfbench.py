"""Fast tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import run

run.import_surfmod()

import reference as ref  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from surfmod import catalog, modulus  # noqa: E402
from workloads import WORKLOADS, OracleLadder  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("p", [1.5, 2.0, 2.7, 3.0])
def test_reference_moduli_match_easy_catalog_cases(p):
    for entry in catalog.standard_entries():
        if entry.name == "pq-map" and p != 2.0:
            continue
        params = entry.parameters
        if entry.name == "parallel":
            expected = ref.shear_modulus(2.0, 3.0, [[0.0]], p)
        elif entry.name == "shear":
            expected = ref.shear_modulus(1.0, 1.0, [[1.0]], p)
        elif entry.name == "annulus-radial":
            expected = ref.annulus_radial_modulus(params["r0"], params["r1"], p)
        elif entry.name == "annulus-circular":
            expected = ref.annulus_circular_modulus(params["r0"], params["r1"], p)
        else:
            expected = ref.pq_map_modulus(1.0, 1.0, p)
        assert expected == pytest.approx(entry.expected_modulus(p), rel=1e-12), entry.name


def test_reference_closed_forms_at_p_two():
    assert ref.annulus_radial_modulus(1.0, math.e, 2.0) == pytest.approx(2.0 * math.pi)
    assert ref.annulus_circular_modulus(1.0, math.e, 2.0) == pytest.approx(1.0 / (2.0 * math.pi))
    assert ref.condenser_modulus(2.0, 1.0, 2.7) == 2.0
    # The power integral is continuous through s = 0, where it is a logarithm.
    assert ref.power_integral(1.0, 2.0, 1e-12) == pytest.approx(math.log(2.0), rel=1e-10)


def test_reference_condenser_matches_reduction():
    entry = catalog.build_entry("condenser", {"sx": 1.7, "sy": 0.6})
    report = modulus.modulus_p(entry.family, 2.4, catalog.default_quadrature())
    assert report.modulus == pytest.approx(ref.condenser_modulus(1.7, 0.6, 2.4), rel=1e-10)


@pytest.mark.parametrize("p", [1.6, 2.0, 3.0])
def test_reference_densities_are_admissible(p):
    nodes, weights = np.polynomial.legendre.leggauss(40)
    r0, r1 = 0.8, 2.3
    radii = 0.5 * (r1 - r0) * nodes + 0.5 * (r1 + r0)
    along_ray = 0.5 * (r1 - r0) * weights @ [ref.annulus_radial_density(r, r0, r1, p) for r in radii]
    assert along_ray == pytest.approx(1.0, rel=1e-12)
    assert 2.0 * math.pi * 1.7 * ref.annulus_circular_density(1.7) == pytest.approx(1.0)
    assert ref.shear_density(2.0, [[0.0]]) * 2.0 == pytest.approx(1.0)


def _outcomes(workload, seed, traced):
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        result = run.run_workload(workload, seed, 0.0, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result["outcomes"], tracer


@pytest.mark.parametrize(
    "workload",
    [WORKLOADS["reduction-sweep"], WORKLOADS["ambient-queries"], OracleLadder(ladder=(8,))],
    ids=lambda w: w.name,
)
def test_traced_and_untraced_runs_agree(workload):
    plain, _ = _outcomes(workload, 7, traced=False)
    traced, tracer = _outcomes(workload, 7, traced=True)
    assert traced == plain
    assert tracer.calls("op") == len(plain)
    assert not hasattr(modulus.jacobian_full, "__wrapped__")


def test_reduction_pass_fails_only_the_known_fault():
    outcomes, _ = _outcomes(WORKLOADS["reduction-sweep"], 3, traced=False)
    failed = [(label, known) for label, known, error in outcomes if error is not None]
    assert failed == [("annulus-circular n=2 m=1 M", True)]


def test_metric_names_match_benchmark_json():
    tracer = Tracer()
    metrics = layer_metrics(tracer, 1, {"import_ms": 1.0, "scipy_import_ms": 1.0})
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)

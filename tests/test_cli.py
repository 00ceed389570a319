"""Command-line interface: output schema, formats, and exit codes."""

import json

import numpy as np
import pytest

from surfmod import DegenerateJacobian, cli

FAST = ["--order", "6", "--subdivisions", "2"]

EXPECTED_KEYS = [
    "family",
    "parameters",
    "p",
    "q",
    "modulus",
    "expected_modulus",
    "relative_error",
    "l_samples",
    "diagnostics",
    "seed",
]


def run_compute(tmp_path, *extra):
    out = tmp_path / "result.json"
    code = cli.main(
        ["compute", "--family", "parallel", "--u", "0,2", "--v", "0,3"]
        + FAST
        + ["--output", str(out)]
        + list(extra)
    )
    return code, out


def test_compute_parallel_json(tmp_path):
    code, out = run_compute(tmp_path)
    assert code == 0
    data = json.loads(out.read_text())
    assert list(data.keys()) == EXPECTED_KEYS
    assert data["family"] == "parallel"
    assert data["p"] == 2 and data["q"] == 2
    assert data["modulus"] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert data["relative_error"] < 1e-12
    assert data["seed"] == 0
    assert len(data["l_samples"]) == 12
    for sample in data["l_samples"]:
        assert sample["l"] == pytest.approx(3.0, rel=1e-12)
    diag = data["diagnostics"]
    assert diag["node_count"] == 144
    assert diag["quadrature"] == {"order": 6, "subdivisions": 2}


def test_compute_condenser_against_closed_form(tmp_path):
    out = tmp_path / "result.json"
    code = cli.main(
        ["compute", "--family", "condenser", "--p", "2.5", "--sx", "1.7", "--sy", "0.6"]
        + ["--output", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    closed_form = 1.7 * 0.6 ** (1.0 - 2.5)
    assert data["expected_modulus"] == pytest.approx(closed_form, rel=1e-15)
    assert data["modulus"] == pytest.approx(closed_form, rel=1e-12)
    assert data["relative_error"] < 1e-12


@pytest.mark.parametrize("sx, sy, p", [(-1.0, 1.0, 2.0), (2.0, -0.5, 2.5), (-1.7, -0.6, 2.5)])
def test_compute_condenser_with_negative_entries(tmp_path, sx, sy, p):
    out = tmp_path / "result.json"
    code = cli.main(
        ["compute", "--family", "condenser", "--p", str(p), "--sx", str(sx), "--sy", str(sy)]
        + ["--output", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    closed_form = abs(sx) * abs(sy) ** (1.0 - p)
    assert data["expected_modulus"] == pytest.approx(closed_form, rel=1e-15)
    assert data["relative_error"] < 1e-12


def test_cross_validate_condenser_with_negative_entry(capsys):
    code = cli.main(
        ["cross-validate", "--family", "condenser", "--sx", "-1.5", "--sy", "0.8", "--ladder", "16,64"]
    )
    assert code == 0
    assert "PASS final gap" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["compute", "verify", "cross-validate"])
@pytest.mark.parametrize("flag, value", [("--sx", "0"), ("--sx", "nan"), ("--sy", "inf"), ("--sy", "-0")])
def test_zero_or_non_finite_condenser_entry_is_config_error(capsys, command, flag, value):
    assert cli.main([command, "--family", "condenser", flag, value]) == 2
    assert "finite and nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_pq_map_scale_is_config_error(capsys, value):
    assert cli.main(["compute", "--family", "pq-map", "--scale", value]) == 2
    assert "finite and positive" in capsys.readouterr().err


def test_cross_validate_on_a_tiny_box(capsys):
    # cell volumes near 1e-302 once overflowed the solver's certificate
    code = cli.main(["cross-validate", "--family", "parallel", "--u", "0,1e-300", "--ladder", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "discrete modulus 1e-300 " in out and "PASS final gap" in out


def test_json_round_trip_is_byte_identical(tmp_path):
    _, out = run_compute(tmp_path)
    text = out.read_text()
    reloaded = json.loads(text)
    assert cli._to_json(reloaded) + "\n" == text


def test_compute_csv(tmp_path):
    out = tmp_path / "result.csv"
    code = cli.main(
        ["compute", "--family", "parallel", "--u", "0,2", "--v", "0,3"]
        + FAST
        + ["--output", str(out), "--format", "csv"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    assert any(line.startswith("# family parallel") for line in meta)
    assert any(line.startswith("# modulus ") for line in meta)
    header = next(line for line in lines if not line.startswith("#"))
    assert header == "x0,l"
    rows = [line for line in lines if not line.startswith("#")][1:]
    assert len(rows) == 12
    for row in rows:
        x, l = (float(tok) for tok in row.split(","))
        assert 0.0 < x < 2.0
        assert l == pytest.approx(3.0, rel=1e-12)


def test_seed_recorded(tmp_path):
    _, out = run_compute(tmp_path, "--seed", "7")
    assert json.loads(out.read_text())["seed"] == 7


def test_verify_passes_for_annulus(capsys):
    code = cli.main(
        ["verify", "--family", "annulus-radial", "--r0", "1", "--r1", "2"]
        + FAST
        + ["--trials", "8"]
    )
    captured = capsys.readouterr().out
    assert code == 0
    for name in ("admissibility", "coarea", "route-equivalence", "extremality"):
        assert f"PASS {name}" in captured


def test_verify_skips_missing_submersion(capsys):
    code = cli.main(["verify", "--family", "condenser"] + FAST + ["--trials", "5"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "SKIP coarea" in captured
    assert "SKIP route-equivalence" in captured
    assert "PASS admissibility" in captured


@pytest.mark.filterwarnings("error")
def test_verify_condenser_with_powers_out_of_the_normal_range(capsys):
    # (area/det)^(q-1) = 1e-400 underflowed to 0: admissibility read 0 and
    # the extremality probe divided by it
    args = ["--sx", "1e200", "--sy", "1e100", "--p", "1.5", "--trials", "5"]
    code = cli.main(["verify", "--family", "condenser"] + args)
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASS admissibility" in captured and "PASS extremality" in captured


@pytest.mark.filterwarnings("error")
def test_verify_a_tiny_box_beyond_the_largest_float_power(capsys):
    # a competitor's rho^3 = 1e600 overflowed before the weights scaled it
    args = ["--u", "0,1e-300", "--v", "0,1e-200", "--p", "3", "--trials", "5"]
    code = cli.main(["verify", "--family", "parallel"] + args)
    assert code == 0
    assert "PASS extremality" in capsys.readouterr().out


@pytest.mark.parametrize("family", ["annulus-radial", "condenser"])
def test_verify_csv(tmp_path, family):
    # annulus-radial has a submersion; the condenser skips coarea and route-equivalence
    out = tmp_path / "verify.csv"
    code = cli.main(
        ["verify", "--family", family] + FAST + ["--trials", "5", "--format", "csv", "--output", str(out)]
    )
    assert code == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert rows[0] == "name,passed,value,tolerance"
    cells = {row.split(",")[0]: row.split(",")[1:] for row in rows[1:]}
    assert list(cells) == ["admissibility", "coarea", "route-equivalence", "extremality"]
    for name, (passed, value, tolerance) in cells.items():
        if family == "condenser" and name in ("coarea", "route-equivalence"):
            assert (passed, value, tolerance) == ("", "", "")
        else:
            assert passed == "true"
            float(value), float(tolerance)


def test_cross_validate_within_band(tmp_path, capsys):
    out = tmp_path / "ladder.json"
    code = cli.main(
        [
            "cross-validate",
            "--family",
            "parallel",
            "--u",
            "0,1",
            "--v",
            "0,1",
            "--ladder",
            "16,64",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert [row["resolution"] for row in data["rows"]] == [16, 64]
    assert data["rows"][-1]["relative_gap"] <= 0.05
    assert "PASS final gap" in capsys.readouterr().out


def test_unknown_family_is_config_error():
    assert cli.main(["compute", "--family", "klein-bottle"]) == 2


def test_bad_exponent_is_config_error():
    for p in ("1.0", "inf"):
        assert cli.main(["compute", "--family", "parallel", "--p", p]) == 2


def test_negative_seed_is_config_error():
    for command in ("compute", "verify", "cross-validate"):
        assert cli.main([command, "--family", "parallel", "--seed", "-1"]) == 2


def test_nonpositive_oracle_counts_are_config_errors(tmp_path, capsys):
    base = ["cross-validate", "--family", "parallel", "--ladder", "4"]
    for flag in ("--surfaces", "--samples"):
        for value in ("0", "-1"):
            assert cli.main(base + [flag, value]) == 2
            assert "must be a positive integer" in capsys.readouterr().err
    config = tmp_path / "run.json"
    for parameters in ({"surfaces": 0}, {"samples": -3}, {"samples": 2.5}):
        config.write_text(json.dumps({"family": "parallel", "parameters": parameters}))
        assert cli.main(["cross-validate", "--config", str(config), "--ladder", "4"]) == 2


def test_malformed_box_is_config_error():
    assert cli.main(["compute", "--family", "parallel", "--u", "zero,two"]) == 2


def test_missing_family_is_config_error():
    assert cli.main(["compute"]) == 2


def test_no_command_is_config_error():
    assert cli.main([]) == 2


def test_help_exits_clean():
    assert cli.main(["--help"]) == 0


def test_numerical_failure_maps_to_exit_three(monkeypatch):
    def boom(*args, **kwargs):
        raise DegenerateJacobian("synthetic failure")

    monkeypatch.setattr(cli, "modulus_p", boom)
    assert cli.main(["compute", "--family", "parallel"] + FAST) == 3


def test_config_file_supplies_defaults(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "command": "compute",
                "family": "parallel",
                "parameters": {"u": [[0.0, 2.0]], "v": [[0.0, 3.0]]},
                "p": 2.0,
                "order": 6,
                "subdivisions": 2,
            }
        )
    )
    out = tmp_path / "result.json"
    code = cli.main(["compute", "--config", str(config), "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["modulus"] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"family": "parallel", "p": 2.0}))
    out = tmp_path / "result.json"
    code = cli.main(
        ["compute", "--config", str(config), "--p", "3.0"]
        + FAST
        + ["--output", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["p"] == 3
    assert data["q"] == pytest.approx(1.5)


def test_config_command_mismatch(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"command": "verify", "family": "parallel"}))
    assert cli.main(["compute", "--config", str(config)]) == 2


def test_config_unknown_key(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"family": "parallel", "colour": "red"}))
    assert cli.main(["compute", "--config", str(config)]) == 2


def test_quadrature_kind_is_not_an_option(tmp_path, capsys):
    # the Gauss-Legendre rule is the only one; order 1 is the midpoint rule
    assert cli.main(["compute", "--family", "parallel", "--kind", "gauss"]) == 2
    capsys.readouterr()
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"family": "parallel", "kind": "gauss"}))
    assert cli.main(["compute", "--config", str(config)]) == 2
    assert "unknown keys: kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("p", "abc"),
        ("p", True),
        ("ladder", 5),
        ("ladder", [16, 1.5]),
        ("parameters", [1, 2]),
        ("seed", 1.5),
        ("order", 6.5),
        ("subdivisions", "2"),
        ("trials", 2.5),
        ("output", ["result.json"]),
    ],
)
def test_config_value_of_wrong_type(tmp_path, capsys, key, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"family": "parallel", key: value}))
    assert cli.main(["verify", "--config", str(config)]) == 2
    assert repr(key) in capsys.readouterr().err


def test_number_formatting_survives_parsing():
    values = [0.1, 2.0 / 3.0, 1e-300, 123456.789, np.pi, 1.0, -0.25]
    for value in values:
        assert float(cli._format_number(value)) == value
    assert cli._format_number(0.0) == "0"
    with pytest.raises(ValueError):
        cli._format_number(np.inf)
    with pytest.raises(ValueError):
        cli._format_number(np.nan)

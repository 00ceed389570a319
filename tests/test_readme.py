"""The README's code examples run against the current API."""

import re
from pathlib import Path

import numpy as np
import pytest

from surfmod import QuadratureScheme, make_polar_annulus, modulus_p

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(section):
    """The ```python blocks between the heading ``section`` and the next one."""
    text = README.read_text(encoding="utf-8")
    after = text[text.index(f"\n{section}\n") + len(section) + 2 :]
    body = re.split(r"\n#{2,3} ", after)[0]
    return re.findall(r"```python\n(.*?)```", body, re.DOTALL)


def test_quick_start_examples_print_what_their_comments_say(capsys):
    quick_start, density_example = _python_blocks("## Quick start")
    namespace = {}
    exec(quick_start, namespace)
    closed_form = 2.0 * np.pi / np.log(2.0)
    assert namespace["report"].modulus == pytest.approx(closed_form, rel=1e-13)
    printed, reference = capsys.readouterr().out.split()
    assert printed.startswith("9.06472028365")
    assert float(reference) == closed_form

    exec(density_example, namespace)
    density = namespace["density"]
    z = np.array([1.2, 0.5])
    assert density.evaluate_ambient(z) == pytest.approx(1.0 / (np.linalg.norm(z) * np.log(2.0)), rel=1e-9)
    for x in (0.3, 2.0, 5.9):
        assert density.l_value([x]) == pytest.approx(np.log(2.0), rel=1e-13)


def test_custom_family_example_computes_the_radial_annulus():
    namespace = {}
    (example,) = _python_blocks("### Custom families")
    exec(example, namespace)
    family = namespace["family"]
    report = modulus_p(family, 2.0, QuadratureScheme(order=8, subdivisions=2))
    expected = make_polar_annulus(1.0, 2.0, mode="radial").expected_modulus(2.0)
    assert expected == pytest.approx(2.0 * np.pi / np.log(2.0))
    assert report.modulus == pytest.approx(expected, rel=1e-9)

"""The README's code examples run against the current API."""

import re
from pathlib import Path

import numpy as np
import pytest

from surfmod import QuadratureScheme, make_polar_annulus, modulus_p

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(section):
    """The first ```python block after the heading ``section``."""
    text = README.read_text(encoding="utf-8")
    after = text[text.index(f"\n{section}\n") :]
    return re.search(r"```python\n(.*?)```", after, re.DOTALL).group(1)


def test_custom_family_example_computes_the_radial_annulus():
    namespace = {}
    exec(_python_block("### Custom families"), namespace)
    family = namespace["family"]
    report = modulus_p(family, 2.0, QuadratureScheme(order=8, subdivisions=2))
    expected = make_polar_annulus(1.0, 2.0, mode="radial").expected_modulus(2.0)
    assert expected == pytest.approx(2.0 * np.pi / np.log(2.0))
    assert report.modulus == pytest.approx(expected, rel=1e-9)

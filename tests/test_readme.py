"""README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_ess_and_predictive():
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(),
                            flags=re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(example, {})
    ess, predictive = out.getvalue().splitlines()
    # One heads on the coins of bias 0.2 / 0.5 / 0.8 under a uniform prior:
    # weights (0.2, 0.5, 0.8) / 1.5, so ESS 1.5^2 / 0.93 and P(heads) 0.62.
    assert float(ess) == pytest.approx(225 / 93, rel=1e-12)
    np.testing.assert_allclose(
        np.array(predictive.strip("[]").split(), dtype=float), [0.38, 0.62],
        rtol=1e-12)

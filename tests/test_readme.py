"""README's library example runs and prints what its comments say, and
its CLI table lists each command's options."""

import argparse
import contextlib
import io
import re
from pathlib import Path

import numpy as np
import pytest

from obayes.harness import cli

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


def test_cli_table_lists_each_commands_options():
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \| (.*) \|$",
                      README.read_text(), flags=re.M)
    (commands,) = [a.choices for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert sorted(command for command, *_ in rows) == \
        sorted(set(commands) - {"oracle-check"})
    for command, flags, others in rows:
        actions = [a for a in commands[command]._actions
                   if a.option_strings != ["-h", "--help"]]
        assert re.findall(r"`(--[a-z-]+)` \(`([a-z_.]+)`\)", flags) == \
            [(a.option_strings[0], a.dest) for a in actions
             if a.option_strings[0] in cli._FLAGS]
        assert sorted(re.findall(r"`(--[a-z-]+)`", others)) == \
            sorted(a.option_strings[0] for a in actions
                   if a.option_strings[0] not in cli._FLAGS)

"""Smoke tests: every example script runs to completion.

Each example carries its own internal assertions (correctness checks
against brute force / both placements), so 'runs without error' is a
meaningful end-to-end integration test of the public API surface.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # every example narrates what it demonstrated

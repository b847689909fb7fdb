"""tools/census.py: the recorder sees every process, the report joins it
against the source."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "census.py"

MODULE = '''
from dataclasses import dataclass

LIMIT = 3

@dataclass
class Config:
    size: int = 4
    name: str = "x"

def scaled(value, factor=2, *, limit=LIMIT):
    if value > limit:
        raise ValueError(value)
    return value * factor

def steps(n, start=0):
    start += 1  # a generator's parameters are read on its first entry only
    for i in range(n):
        yield start + i

def unused(flag=False):
    return flag
'''

SCRIPT = '''
import subprocess, sys
from pkg.mod import Config, scaled, steps
scaled(1)
list(steps(2))
Config(size=5)
if len(sys.argv) == 1:  # the child gives `factor` its second value
    subprocess.run([sys.executable, __file__, "child"], check=True)
else:
    scaled(1, 3)
'''


@pytest.fixture(scope="module")
def project(tmp_path_factory):
    root = tmp_path_factory.mktemp("census")
    (root / "pkg").mkdir()
    (root / "pkg" / "__init__.py").write_text("")
    (root / "pkg" / "mod.py").write_text(textwrap.dedent(MODULE))
    (root / "script.py").write_text(textwrap.dedent(SCRIPT))
    return root


def _census(project, mode):
    out = project / f"out-{mode}"
    common = ["--mode", mode, "--src", str(project / "pkg")]
    subprocess.run(
        [sys.executable, str(TOOL), "run", *common, "--out", str(out), "--",
         sys.executable, str(project / "script.py")],
        check=True, cwd=project,
    )
    return subprocess.run(
        [sys.executable, str(TOOL), "report", *common, f"demo={out}"],
        check=True, capture_output=True, text=True,
    ).stdout


def test_args_mode_separates_defaults_that_never_moved(project):
    report = _census(project, "args")
    assert "census [args] over demo (2 processes)" in report
    never, _, rest = report.partition("parameters with a default")[2].partition(
        "second value from demo:"
    )
    assert "scaled(limit~LIMIT)" in never and "steps(start=0)" in never
    assert "scaled(factor=2)" in rest  # only the child process passed it
    assert "unused" not in report  # never ran: not an option anyone holds
    fields = report.partition("dataclass fields with a default")[2]
    never, _, rest = fields.partition("second value from demo:")
    assert "Config(name='x')" in never and "Config(size=4)" in rest


def test_funcs_and_lines_modes_find_what_never_ran(project):
    assert "pkg/mod.py:21 unused (2 lines)" in _census(project, "funcs")
    lines = _census(project, "lines")
    assert "never executed: 2 (1 plain, 1 raise)" in lines
    assert "raise  pkg/mod.py:13: raise ValueError(value)" in lines

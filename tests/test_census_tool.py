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


def test_funcs_report_names_what_only_one_labelled_run_enters(project):
    (project / "other.py").write_text("from pkg.mod import scaled, unused\nscaled(1)\nunused()\n")
    common = ["--mode", "funcs", "--src", str(project / "pkg")]
    dirs = []
    for label, script in (("demo", "script.py"), ("other", "other.py")):
        out = project / f"only-{label}"
        subprocess.run(
            [sys.executable, str(TOOL), "run", *common, "--out", str(out), "--",
             sys.executable, str(project / script)],
            check=True, cwd=project,
        )
        dirs.append(f"{label}={out}")
    report = subprocess.run(
        [sys.executable, str(TOOL), "report", *common, *dirs],
        check=True, capture_output=True, text=True,
    ).stdout
    nothing = report.partition("entered by nothing: ")[2].partition("\n\n")[0]
    demo = report.partition("entered only by demo: ")[2].partition("\n\n")[0]
    other = report.partition("entered only by other: ")[2]
    assert nothing.startswith("0 (0 lines)")
    assert "steps" in demo and "scaled" not in demo  # both runs enter scaled
    assert other.startswith("1 (2 lines)\n  by package: mod 1\n")
    assert "pkg/mod.py:21 unused (2 lines)" in other


def test_the_same_method_in_two_files_is_two_functions(tmp_path):
    """Code objects compare equal across files; the recorder must not."""
    (tmp_path / "twin").mkdir()
    (tmp_path / "twin" / "__init__.py").write_text("")
    for name in ("a", "b"):
        (tmp_path / "twin" / f"{name}.py").write_text("def hook():\n    return 0.0\n")
    (tmp_path / "run.py").write_text("from twin import a, b\na.hook()\nb.hook()\n")
    common = ["--mode", "funcs", "--src", str(tmp_path / "twin")]
    subprocess.run(
        [sys.executable, str(TOOL), "run", *common, "--out", str(tmp_path / "out"), "--",
         sys.executable, str(tmp_path / "run.py")],
        check=True, cwd=tmp_path,
    )
    report = subprocess.run(
        [sys.executable, str(TOOL), "report", *common, f"demo={tmp_path / 'out'}"],
        check=True, capture_output=True, text=True,
    ).stdout
    assert "entered by nothing: 0 (0 lines)" in report


def test_a_prod_report_fails_until_the_kept_list_names_what_prod_leaves(project, tmp_path):
    """With a run labelled ``prod``, every function it never enters and
    every parameter it never moves needs a row, with a reason, in the
    kept list beside the tool."""
    tool = tmp_path / "census.py"
    tool.write_text(TOOL.read_text())
    kept = tmp_path / "census_kept.md"

    def report(mode):
        out = project / f"out-{mode}"
        if not out.exists():
            _census(project, mode)
        return subprocess.run(
            [sys.executable, str(tool), "report", "--mode", mode,
             "--src", str(project / "pkg"), f"prod={out}"],
            capture_output=True, text=True,
        )

    kept.write_text("## functions\n\n| entry | reason |\n|---|---|\n")
    funcs = report("funcs")
    assert funcs.returncode == 1
    assert "functions prod leaves, not in census_kept.md: 1\n  pkg/mod.py unused\n" in funcs.stdout

    kept.write_text(
        "## functions\n\n| `pkg/mod.py unused` | (8) kept for the test |\n\n"
        "## parameters\n\n| `pkg/mod.py scaled(limit)` `pkg/mod.py steps(*)` | (10) a seam |\n\n"
        "## fields\n\n| `pkg/mod.py Config(name)` | (5) a record |\n"
    )
    assert report("funcs").returncode == 0
    args = report("args")
    assert args.returncode == 0, args.stdout
    assert "parameters prod leaves, not in census_kept.md: 0" in args.stdout
    assert "kept parameters patterns that match nothing: 0" in args.stdout

    # a row whose entry is gone, or now runs in prod, is stale: it fails too
    kept.write_text(kept.read_text().replace(
        "`pkg/mod.py unused`", "`pkg/mod.py unused` `pkg/mod.py scaled`"))
    stale = report("funcs")
    assert stale.returncode == 1
    assert "kept functions patterns that match nothing: 1\n  pkg/mod.py scaled\n" in stale.stdout

    kept.write_text("## functions\n\n| `pkg/mod.py unused` | no reason |\n")
    bad = report("funcs")
    assert bad.returncode == 1 and "a kept row needs a reason (1)-(10)" in bad.stderr

"""The launch seam: command registry, bench driver, shared flags.

- every :data:`repro.__main__.COMMANDS` entry resolves, and its
  ``--help`` exits 0 without starting a simulation;
- no command / unknown command exit 2 with the generated table;
- ``python -m repro fig7`` and ``python -m repro.experiments.fig7`` are
  the same callable; a flag a command does not read is an argparse
  error (exit 2), not a silent no-op;
- ``serve``/``perf query`` and ``stream``/``perf stream`` are one
  driver: byte-identical sidecars, and a bench's own ``failed`` verdict
  and the baseline guard both reach the exit code on every path;
- the README command table matches the registry, and every package
  under ``src/repro`` has a user and a row in each inventory.
"""

from __future__ import annotations

import ast
import copy
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import COMMANDS, USAGE, main
from repro.perf import bench

ROOT = Path(__file__).resolve().parents[1]


# -- the registry -----------------------------------------------------------
@pytest.mark.parametrize("name", list(COMMANDS))
def test_every_command_resolves_and_helps(name, capsys):
    target, summary = COMMANDS[name]
    assert callable(pkgutil.resolve_name(target)) and summary
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["no-such-command"]])
def test_missing_or_unknown_command_prints_the_table(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.strip() == USAGE
    for name, (_, summary) in COMMANDS.items():
        assert re.search(rf"^  {re.escape(name)} +{re.escape(summary)}$", err, re.M)


def test_top_level_help_prints_the_table(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.strip() == USAGE


def test_module_guard_is_the_registry_callable():
    """``python -m repro.experiments.fig7`` runs the callable the registry names."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    helps = [
        subprocess.run(
            [sys.executable, "-m", *module, "--help"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        for module in (["repro", "fig7"], ["repro.experiments.fig7"])
    ]
    assert helps[0] == helps[1]
    assert "--fast" in helps[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["fig11", "--trace", "t.json", "--flow", "0.5", "--fast"],
        ["fig9", "--fast"],
        ["fig10", "--trace"],
        ["utilization", "--fast"],
        ["chaos", "--fast"],
        ["headline", "--flow"],
        ["headline", "--trace"],
        ["fig7", "--flow"],
        ["fig8", "--trace"],
        ["run-all", "--flow"],
    ],
)
def test_a_flag_the_command_does_not_read_exits_2(argv, capsys, tmp_path, monkeypatch):
    """Regression: the old top-level parser accepted --trace/--flow/--fast
    for every experiment and dropped the ones the command never read."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# -- one bench driver -------------------------------------------------------
@pytest.mark.parametrize(
    "alias, name, flags",
    [
        ("serve", "query", ["--loads", "50", "--duration", "0.25"]),
        ("stream", "stream", ["--steps", "3"]),
    ],
)
def test_alias_and_perf_name_write_identical_sidecars(alias, name, flags, tmp_path, capsys):
    assert main([alias, *flags, "--out", str(tmp_path / "alias")]) == 0
    assert main(["perf", name, *flags, "--out", str(tmp_path / "perf")]) == 0
    sidecar = f"BENCH_{name}.json"
    assert (tmp_path / "alias" / sidecar).read_bytes() == (tmp_path / "perf" / sidecar).read_bytes()
    assert json.loads((tmp_path / "perf" / sidecar).read_text())["bench"] == name


def test_perf_flags_must_be_known_to_every_named_bench(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["perf", "kernels", "stream", "--n", "10", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "repro perf stream: error: unrecognized arguments: --n 10" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # parsed before anything ran


def _doctored_stream() -> dict:
    from repro.stream.bench import bench_stream

    record = bench_stream(nsteps=3)
    assert record["run"]["violations"] == []
    record["run"]["violations"] = ["doctored: sent != delivered + deduped"]
    return record


def _doctored_chaos_matrix() -> dict:
    from repro.scenarios.runner import sweep

    record = sweep(["corrupt-chunk"], fast=True)
    assert record["guards"]["complete_fraction"] == 1.0
    record["guards"]["complete_fraction"] = 0.5
    return record


@pytest.mark.parametrize(
    "argv, name, doctored",
    [
        (["stream"], "stream", _doctored_stream),
        (["scenarios", "sweep"], "chaos_matrix", _doctored_chaos_matrix),
    ],
)
@pytest.mark.parametrize("with_empty_baseline", [True, False])
def test_failed_record_exits_1_on_every_path(
    argv, name, doctored, with_empty_baseline, tmp_path, monkeypatch, capsys
):
    """Regression: ``repro stream`` returned 0 from its "no baseline;
    skipping guard" branch before looking at the violations."""
    record = doctored()
    monkeypatch.setattr(bench.BENCHES[name], "run", lambda **flags: record)
    empty = tmp_path / "no-baselines"
    empty.mkdir()
    flags = ["--out", str(tmp_path)] + (["--baseline", str(empty)] * with_empty_baseline)
    assert main([*argv, *flags]) == 1
    out = capsys.readouterr().out
    assert f"FAILED {name}" in out
    assert ("skipping guard" in out) == with_empty_baseline


def test_committed_baseline_guard_fails_a_doctored_record(tmp_path, monkeypatch, capsys):
    baseline = json.loads((bench.default_baseline_dir() / "BENCH_query.json").read_text())
    key = next(iter(baseline["guards"]))

    def rc_for(record):
        monkeypatch.setattr(bench.BENCHES["query"], "run", lambda **flags: record)
        return main(["serve", "--baseline", "default", "--out", str(tmp_path)])

    assert rc_for(baseline) == 0
    extra = copy.deepcopy(baseline)
    extra["guards"]["not:in-the-baseline"] = 0.0  # only baseline keys are enforced
    extra["guards"][key] *= 0.81  # inside the 20 % tolerance
    assert rc_for(extra) == 0
    low = copy.deepcopy(baseline)
    low["guards"][key] *= 0.79
    assert rc_for(low) == 1
    assert f"REGRESSION guard {key!r} regressed" in capsys.readouterr().out
    missing = copy.deepcopy(baseline)
    del missing["guards"][key]
    assert rc_for(missing) == 1
    assert "missing from current run" in capsys.readouterr().out


# -- README drift check -----------------------------------------------------
def test_readme_command_table_matches_the_registry():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| ([^|]+) \| .* \|$", section, re.M)
    assert [(name, summary.strip()) for name, summary in rows] == [
        (name, summary) for name, (_, summary) in COMMANDS.items()
    ]


def test_every_package_has_a_user_and_a_row_in_each_inventory():
    """A directory under ``src/repro`` must be imported by another one
    (or launched by a command), and be listed in ``repro.__all__``, the
    README architecture table and DESIGN.md §3."""
    src = ROOT / "src" / "repro"
    packages = sorted(m.name for m in pkgutil.iter_modules([str(src)]) if m.ispkg)
    users: dict[str, set[str]] = {name: set() for name in packages}
    for path in src.rglob("*.py"):
        owner = path.relative_to(src).parts[0]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "repro":
                modules = [f"repro.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                top, _, rest = module.partition(".")
                used = rest.split(".")[0]
                if top == "repro" and used in users and used != owner:
                    users[used].add(owner)
    # a command's own name counts: `serve`/`stream` reach their packages
    # through the bench table's lazy "module:callable" strings
    launched = set(COMMANDS) | {
        target.split(":")[0].split(".")[1] for target, _ in COMMANDS.values()
    }
    assert [p for p in packages if not users[p] and p not in launched] == []

    assert sorted(repro.__all__) == packages
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Architecture\n", 1)[1].split("\n## ", 1)[0]
    assert sorted(re.findall(r"^repro\.(\w+) ", table, re.M)) == packages
    design = (ROOT / "DESIGN.md").read_text()
    inventory = design.split("## 3. Package inventory\n", 1)[1].split("\n## ", 1)[0]
    assert sorted(re.findall(r"^  (\w+)/ ", inventory, re.M)) == packages

"""tools/lint.py: undefined names (F821), the layer contract (L001),
package import cycles (L002) and duplicate function bodies (D001) fire
on what a change leaves behind, and the real tree is clean."""

import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "lint.py"
ROOT = TOOL.parents[1]


def _lint(*paths, cwd=None):
    proc = subprocess.run(
        [sys.executable, str(TOOL), *map(str, paths)],
        capture_output=True, text=True, cwd=cwd,
    )
    return proc.returncode, proc.stdout


def _module(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def test_a_deleted_import_whose_name_is_still_read_is_f821(tmp_path):
    path = _module(tmp_path, "mod.py", '''
        import hashlib


        def digest(payload, *, seed=0, **extra):
            h = hashlib.sha256(payload)
            rows = [r for r in extra if (n := len(r)) > seed]
            try:
                return h.hexdigest(), rows, n, len(rows)
            except ValueError as exc:
                raise RuntimeError(exc) from exc


        def packed(step):
            return OutputStep.pack(step)


        def noted(step):
            return OutputStep.pack(step)  # noqa
        ''')
    rc, out = _lint(path)
    assert (rc, out) == (1, f"{path}:15: F821 undefined name 'OutputStep'\n")

    # the import that used to bind `hashlib` is gone, its reads are not
    path.write_text(path.read_text().replace("import hashlib", ""))
    rc, out = _lint(path)
    assert rc == 1
    assert f"{path}:6: F821 undefined name 'hashlib'" in out.splitlines()


def test_a_core_module_importing_an_extension_is_l001(tmp_path):
    path = _module(tmp_path, "src/repro/core/mod.py", '''
        from repro.serve import QueryService

        SERVICE = QueryService
        ''')
    rc, out = _lint(path)
    assert (rc, out) == (
        1,
        f"{path}:2: L001 'core' is a paper-core package and may not import 'repro.serve'\n",
    )


def test_the_named_seams_and_paper_packages_are_not_l001(tmp_path):
    path = _module(tmp_path, "src/repro/core/mod.py", '''
        from repro.faults.errors import FetchDropped
        from repro.flow import FlowConfig
        from repro.perf import kernels
        from repro.sim.engine import Engine

        USED = (FetchDropped, FlowConfig, kernels, Engine)
        ''')
    assert _lint(path) == (0, "")
    # an extension package outside the paper core may import anything
    other = _module(tmp_path, "src/repro/serve/mod.py", '''
        from repro.check import Checker

        USED = Checker
        ''')
    assert _lint(other) == (0, "")


def test_a_package_import_cycle_is_l002_even_through_a_local_import(tmp_path):
    chaos = _module(tmp_path, "src/repro/experiments/chaos.py", '''
        from repro.check.workloads import FIELD_GROUP

        GROUP = FIELD_GROUP
        ''')
    cli = _module(tmp_path, "src/repro/check/cli.py", '''
        def main():
            from repro.experiments.chaos import GROUP

            return GROUP
        ''')
    # reported once, where the cycle returns to its first package
    rc, out = _lint(tmp_path / "src")
    assert (rc, out) == (
        1, f"{chaos}:2: L002 package import cycle: check -> experiments -> check\n",
    )
    # the same imports one way only: no cycle
    rc, out = _lint(cli)
    assert (rc, out) == (0, "")


def test_perf_kernels_is_its_own_node_of_the_package_graph(tmp_path):
    _module(tmp_path, "src/repro/core/mod.py", '''
        from repro.perf import kernels

        USED = kernels
        ''')
    _module(tmp_path, "src/repro/perf/bench.py", '''
        from repro.core.mod import USED

        BENCHED = USED
        ''')
    assert _lint(tmp_path / "src") == (0, "")
    # ...but the rest of perf is not: core -> perf -> core is a cycle
    _module(tmp_path, "src/repro/core/other.py", '''
        from repro.perf.bench import BENCHED

        USED = BENCHED
        ''')
    rc, out = _lint(tmp_path / "src")
    assert rc == 1
    assert "L001 'core' is a paper-core package and may not import 'repro.perf.bench'" in out
    assert "L002 package import cycle: core -> perf -> core" in out


def test_two_functions_with_one_body_under_repro_are_d001(tmp_path):
    first = _module(tmp_path, "src/repro/operators/a.py", '''
        class A:
            def total(self, values):
                """Sum of the values."""
                out = values[0].copy()
                for v in values[1:]:
                    out += v
                return out
        ''')
    second = _module(tmp_path, "src/repro/operators/b.py", '''
        def total(values):
            # the same statements under another docstring and comment
            """Another docstring."""
            out = values[0].copy()
            for v in values[1:]:
                out += v
            return out
        ''')
    rc, out = _lint(tmp_path / "src")
    assert (rc, out) == (
        1, f"{second}:2: D001 body of total repeats A.total ({first}:3)\n",
    )


def test_one_statement_bodies_and_code_outside_repro_are_not_d001(tmp_path):
    _module(tmp_path, "src/repro/core/a.py", '''
        def rows(step):
            return step.shape[0]


        def also_rows(step):
            return step.shape[0]


        def scaled(values):
            out = values.copy()
            return out * 2
        ''')
    _module(tmp_path, "src/repro/core/b.py", '''
        def scaled(values):
            out = values.copy()
            return out * 3
        ''')
    _module(tmp_path, "tools/c.py", '''
        def scaled(values):
            out = values.copy()
            return out * 2
        ''')
    assert _lint(tmp_path / "src", tmp_path / "tools") == (0, "")


def test_the_real_tree_is_clean():
    assert _lint(cwd=ROOT) == (0, "")

"""tools/lint.py: undefined names (F821) and the layer contract (L001)
fire on what a deletion leaves behind, and the real tree is clean."""

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


def test_the_real_tree_is_clean():
    assert _lint(cwd=ROOT) == (0, "")

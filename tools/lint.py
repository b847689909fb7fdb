#!/usr/bin/env python3
"""Stdlib lint: the two errors a deletion leaves behind, plus syntax.

    python tools/lint.py [PATH ...]     # default: src tests benchmarks tools examples

Three checks, each reported as ``path:line: CODE message``; the exit
status is 1 if any fired:

- ``E999``: the file does not compile (``compile()`` on its source, as
  ``compileall`` would, without writing ``.pyc`` files);
- ``F401``: a name imported and never used in its module.  A name counts
  as used if it is read anywhere in the module, named in a string
  annotation, or listed in ``__all__``; ``import a.b`` counts as used
  when ``a`` is read; ``from __future__`` imports, ``import x as x``
  re-exports and lines carrying ``# noqa`` are exempt;
- ``F822``: a name in a module-level ``__all__`` that the module does not
  define (by assignment, ``def``, ``class`` or import) and that is not a
  submodule of the package whose ``__init__.py`` it is.

It covers what ``ruff`` selects for these codes closely enough to run
where ``ruff`` is not installed; it is not a replacement for ``ruff``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_PATHS = ("src", "tests", "benchmarks", "tools", "examples")


def _bound_names(target: ast.AST) -> list[str]:
    return [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]


def _module_defs(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level (through if/try blocks)."""
    defs: set[str] = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                defs.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                defs.update(_bound_names(t))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            defs.update(_bound_names(node.target))
        elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                stack.extend(getattr(node, field, []))
        elif isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)
    return defs


def _dunder_all(tree: ast.Module) -> list[tuple[str, int]]:
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    return [
                        (el.value, el.lineno)
                        for el in node.value.elts
                        if isinstance(el, ast.Constant) and isinstance(el.value, str)
                    ]
    return []


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    try:
                        used |= _used_names(ast.parse(sub.value, mode="eval"))
                    except SyntaxError:
                        pass
    return used


def check_source(path: Path, source: str) -> list[str]:
    """Lint findings for one file's *source*."""
    try:
        compile(source, str(path), "exec")
        tree = ast.parse(source, str(path))
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno}: E999 {exc.msg}"]
    lines = source.splitlines()
    exported = _dunder_all(tree)
    used = _used_names(tree) | {name for name, _ in exported}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*" or (alias.asname and alias.asname == alias.name):
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                out.append(f"{path}:{node.lineno}: F401 {alias.name!r} imported but unused")
    defs = _module_defs(tree)
    package = path.parent if path.name == "__init__.py" else None
    for name, lineno in exported:
        if name in defs:
            continue
        if package is not None and (
            (package / f"{name}.py").exists() or (package / name / "__init__.py").exists()
        ):
            continue
        out.append(f"{path}:{lineno}: F822 undefined name {name!r} in __all__")
    return out


def iter_files(paths: list[str]):
    for p in map(Path, paths):
        if p.is_file():
            yield p
        elif p.is_dir():
            yield from sorted(
                f for f in p.rglob("*.py") if not any(part.startswith(".") for part in f.parts)
            )


def main(argv: list[str] | None = None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or list(DEFAULT_PATHS)
    findings = []
    nfiles = 0
    for f in iter_files(paths):
        nfiles += 1
        findings += check_source(f, f.read_text(encoding="utf-8"))
    for line in findings:
        print(line)
    print(f"lint: {nfiles} files, {len(findings)} findings", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())

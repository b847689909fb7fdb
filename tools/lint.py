#!/usr/bin/env python3
"""Stdlib lint: the errors a deletion leaves behind, syntax, and the layer contract.

    python tools/lint.py [PATH ...]     # default: src tests benchmarks tools examples

Five checks, each reported as ``path:line: CODE message``; the exit
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
  submodule of the package whose ``__init__.py`` it is;
- ``F821``: a name read that nothing in the module binds and that is not
  a builtin.  Bindings are counted module-wide, whatever their scope:
  ``def``/``class`` names, parameters, every assignment, ``for``,
  ``with``, ``except``, walrus, comprehension and ``match`` target,
  ``global``/``nonlocal`` names and imports.  A module with a ``*``
  import is skipped; names in string annotations are checked too;
- ``L001``: the layer contract.  A module of the paper's system
  (:data:`PAPER_CORE`, under ``repro/``) imports from ``repro.*`` only
  those packages and the named seams in :data:`SEAMS`; ``from
  repro.perf import kernels`` counts as ``perf.kernels``.

``# noqa`` exempts a line from F821 and L001 as well.

It covers what ``ruff`` selects for these codes closely enough to run
where ``ruff`` is not installed; it is not a replacement for ``ruff``.
"""

from __future__ import annotations

import ast
import builtins
import sys
from pathlib import Path

DEFAULT_PATHS = ("src", "tests", "benchmarks", "tools", "examples")

#: the packages of the paper's own system (``experiments`` excepted: its
#: import cycles with ``check`` are not broken yet)
PAPER_CORE = frozenset(
    {"sim", "machine", "mpi", "ffs", "adios", "dataspaces", "core", "operators",
     "apps", "query"}
)
#: the extension modules the paper core may import: a module path under
#: ``repro.`` that equals one of these or lies below it
SEAMS = ("perf.kernels", "faults.config", "faults.errors", "faults.recovery", "flow")

#: names a module reads without binding them: builtins plus what the
#: import system sets on a module beyond them
_PREDEFINED = frozenset(dir(builtins)) | {"__file__", "__builtins__", "__path__"}


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


def _loads(tree: ast.AST):
    """``(name, line)`` of every name read or deleted, string annotations
    included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
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
                        parsed = ast.parse(sub.value, mode="eval")
                    except SyntaxError:
                        continue
                    for name, _ in _loads(parsed):
                        yield name, sub.lineno


def _used_names(tree: ast.Module) -> set[str]:
    return {name for name, _ in _loads(tree)}


def _all_bindings(tree: ast.Module) -> set[str] | None:
    """Every name bound anywhere in the module (None: a ``*`` import)."""
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    return None
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.ExceptHandler, ast.MatchAs, ast.MatchStar)):
            if node.name:
                bound.add(node.name)
        elif isinstance(node, ast.MatchMapping) and node.rest:
            bound.add(node.rest)
    return bound


def _repro_package(path: Path) -> tuple[str, ...] | None:
    """The package of *path* as a tuple of names from ``repro`` down (None
    outside a ``repro`` directory)."""
    parts = path.resolve().parts
    if "repro" not in parts[:-1]:
        return None
    i = len(parts) - 1 - parts[::-1].index("repro", 1)
    return ("repro", *parts[i + 1 : -1])


def _imported_modules(node: ast.AST, package: tuple[str, ...]) -> list[str]:
    """Dotted module paths one import statement may load, ``from M import
    n`` giving both ``M`` and ``M.n`` (``n`` may be a submodule)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module.split(".") if node.module else []
    if node.level:
        base = [*package[: len(package) - node.level + 1], *base]
    module = ".".join(base)
    return [module, *(f"{module}.{alias.name}" for alias in node.names)]


def _allowed(module: str) -> bool:
    top, _, rest = module.partition(".")
    if top != "repro" or not rest:
        return True
    if rest.split(".")[0] in PAPER_CORE:
        return True
    return any(rest == seam or rest.startswith(seam + ".") for seam in SEAMS)


def _layer_findings(path: Path, tree: ast.Module, lines: list[str]) -> list[str]:
    package = _repro_package(path)
    if package is None or len(package) < 2 or package[1] not in PAPER_CORE:
        return []
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        modules = _imported_modules(node, package)
        if isinstance(node, ast.ImportFrom):
            # ``from M import a, b``: M itself, or every ``M.a`` is a seam
            if _allowed(modules[0]) or all(map(_allowed, modules[1:])):
                continue
            bad = modules[0]
        else:
            bad = next((m for m in modules if not _allowed(m)), None)
            if bad is None:
                continue
        out.append(
            f"{path}:{node.lineno}: L001 {package[1]!r} is a paper-core package and "
            f"may not import {bad!r}"
        )
    return out


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
    bound = _all_bindings(tree)
    if bound is not None:
        seen = set()
        for name, lineno in sorted(_loads(tree), key=lambda load: load[1]):
            if name in bound or name in _PREDEFINED or (name, lineno) in seen:
                continue
            seen.add((name, lineno))
            if "# noqa" not in lines[lineno - 1]:
                out.append(f"{path}:{lineno}: F821 undefined name {name!r}")
    out += _layer_findings(path, tree, lines)
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

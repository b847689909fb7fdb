#!/usr/bin/env python3
"""Stdlib lint: the errors a deletion leaves behind, syntax, the layer contract and copies.

    python tools/lint.py [PATH ...]     # default: src tests benchmarks tools examples

Seven checks, each reported as ``path:line: CODE message``; the exit
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
  repro.perf import kernels`` counts as ``perf.kernels``;
- ``L002``: the package import graph has no cycle.  Its nodes are the
  packages under ``repro/`` (with ``perf.kernels`` a node of its own, as
  L001 counts it) and every import in a linted file is an edge, a
  function-local one too.  A cycle is reported once, at the import that
  closes it from its alphabetically first package;
- ``D001``: two functions under ``repro/`` (methods and nested functions
  included) whose bodies, docstrings left out, are the same AST and at
  least two statements long.  Reported at every copy after the first,
  in path and line order, naming the first.

``# noqa`` exempts a line from F821, L001 and L002 as well.

It covers what ``ruff`` selects for these codes closely enough to run
where ``ruff`` is not installed; it is not a replacement for ``ruff``.
"""

from __future__ import annotations

import ast
import builtins
import sys
from pathlib import Path

DEFAULT_PATHS = ("src", "tests", "benchmarks", "tools", "examples")

#: the packages of the paper's own system; ``experiments`` (the paper's
#: figures) and ``check`` (its verification) drive it from outside
PAPER_CORE = frozenset(
    {"sim", "machine", "mpi", "ffs", "adios", "dataspaces", "core", "operators",
     "apps", "query"}
)
#: the extension modules the paper core may import: a module path under
#: ``repro.`` that equals one of these or lies below it
SEAMS = ("perf.kernels", "faults.config", "faults.errors", "faults.recovery", "flow")
#: modules the L002 package graph counts as nodes of their own: the paper
#: core imports the kernels, and the rest of ``perf`` benchmarks the core
OWN_NODES = ("perf.kernels",)

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


def _graph_node(module: str) -> str | None:
    """The L002 node of a dotted module path under ``repro`` (None for
    ``repro`` itself and anything outside it)."""
    top, _, rest = module.partition(".")
    if top != "repro" or not rest:
        return None
    own = next((n for n in OWN_NODES if rest == n or rest.startswith(n + ".")), None)
    return own or rest.split(".")[0]


def package_edges(path: Path, tree: ast.Module, lines: list[str]):
    """``(importer, imported, lineno)`` for every cross-package import in
    one file under ``repro/<package>/``."""
    package = _repro_package(path)
    if package is None or len(package) < 2:
        return []
    dotted = ".".join(package if path.name == "__init__.py" else (*package, path.stem))
    here = _graph_node(dotted)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        modules = _imported_modules(node, package)
        if isinstance(node, ast.ImportFrom):
            # ``from M import a``: ``M.a`` when that names an own node
            # (``from repro.perf import kernels``), else ``M`` itself
            targets = [m for m in modules[1:] if _graph_node(m) in OWN_NODES] or modules[:1]
        else:
            targets = modules
        for there in {_graph_node(m) for m in targets} - {None, here}:
            out.append((here, there, node.lineno))
    return out


def cycle_findings(edges: list[tuple[str, str, Path, int]]) -> list[str]:
    """One L002 finding per strongly connected group of packages."""
    graph: dict[str, dict[str, tuple[Path, int]]] = {}
    for src, dst, path, lineno in sorted(edges, key=lambda e: (e[0], e[1], str(e[2]), e[3])):
        graph.setdefault(src, {}).setdefault(dst, (path, lineno))

    def reach(start: str) -> set[str]:
        seen, todo = set(), [start]
        while todo:
            for nxt in graph.get(todo.pop(), {}):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    out, done = [], set()
    for start in sorted(graph):
        if start in done or start not in reach(start):
            continue
        group = {n for n in reach(start) if start in reach(n)}
        done |= group
        # the shortest way back to *start* inside the group, by BFS
        prev, queue, last = {start: None}, [start], None
        while last is None:
            cur = queue.pop(0)
            for nxt in sorted(graph.get(cur, {})):
                if nxt == start:
                    last = cur
                    break
                if nxt in group and nxt not in prev:
                    prev[nxt] = cur
                    queue.append(nxt)
        walk, cur = [], last
        while cur is not None:  # last, ..., start
            walk.append(cur)
            cur = prev[cur]
        cycle = [*reversed(walk), start]
        path, lineno = graph[last][start]
        out.append(f"{path}:{lineno}: L002 package import cycle: {' -> '.join(cycle)}")
    return out


def function_bodies(path: Path, tree: ast.Module):
    """``(dump, lineno, qualname)`` of every function in a file under
    ``repro/`` whose body, docstring left out, has at least 2 statements."""
    if _repro_package(path) is None:
        return []
    out = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    body = child.body
                    if ast.get_docstring(child, clean=False) is not None:
                        body = body[1:]
                    if len(body) >= 2:
                        out.append((ast.dump(ast.Module(body, [])), child.lineno, name))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def duplicate_findings(bodies: list[tuple[str, Path, int, str]]) -> list[str]:
    """One D001 finding per function whose body repeats an earlier one."""
    first: dict[str, tuple[Path, int, str]] = {}
    out = []
    for dump, path, lineno, name in sorted(bodies, key=lambda b: (str(b[1]), b[2])):
        if dump not in first:
            first[dump] = (path, lineno, name)
            continue
        fpath, fline, fname = first[dump]
        out.append(f"{path}:{lineno}: D001 body of {name} repeats {fname} ({fpath}:{fline})")
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
    findings, edges, bodies = [], [], []
    nfiles = 0
    for f in iter_files(paths):
        nfiles += 1
        source = f.read_text(encoding="utf-8")
        findings += check_source(f, source)
        try:
            tree = ast.parse(source, str(f))
        except SyntaxError:
            continue
        edges += [(a, b, f, n) for a, b, n in package_edges(f, tree, source.splitlines())]
        bodies += [(d, f, n, name) for d, n, name in function_bodies(f, tree)]
    findings += cycle_findings(edges) + duplicate_findings(bodies)
    for line in findings:
        print(line)
    print(f"lint: {nfiles} files, {len(findings)} findings", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Execution census: what under ``src/repro`` do the suites actually use?

    python tools/census.py run --mode MODE --out DIR -- CMD [ARG ...]
    python tools/census.py report --mode MODE [LABEL=]DIR [[LABEL=]DIR ...]

``run`` copies this file to ``DIR/_site/sitecustomize.py`` and puts that
directory on ``PYTHONPATH``, so *every* Python process CMD starts (pytest,
benchmark workers, ``python -m repro`` children) installs the recorder
and dumps ``DIR/MODE-<pid>.json`` at exit.  Three modes:

- ``funcs``: every function entered (``sys.setprofile``, ``call`` events);
- ``lines``: every line executed (``sys.settrace``);
- ``args``: on every call, each parameter that has a default is compared
  with the value the frame received; a dataclass ``__init__`` (compiled
  from ``"<string>"``) is compared field by field.

``report`` joins the dumps of one or more runs against an AST walk of
the source tree: functions nothing entered, executable lines nothing
ran (``raise`` / ``__repr__`` / ``except`` / plain), and parameters,
dataclass fields that never held anything but their default - with, for
each one that did, the labels of the runs that supplied a second value.
A parameter whose default is a literal is marked ``=``, one whose
default is a name or expression (``x=LIMIT``) is marked ``~``.

The run labelled ``prod`` is the production side.  When one is given,
``report --mode funcs`` / ``--mode args`` exits 1 unless every function
``prod`` never enters, and every parameter and field ``prod`` never
gives a second value, is listed with its reason in :data:`KEPT`
(``tools/census_kept.md``), and every kept row matches one of them.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import dataclasses
import gc
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import types
from collections import Counter
from fnmatch import fnmatchcase as fnmatch
from pathlib import Path

MODES = ("funcs", "lines", "args")
_GENERATOR_FLAGS = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR
#: a dataclass that holds options, not a zero-initialised record of results
CONFIG_CLASS = re.compile(r"(Config|Spec|Driver|Scenario|Selector)$")
DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
#: the kept list: what production may leave unentered or at its default
KEPT = Path(__file__).resolve().with_name("census_kept.md")
#: the label of the production run
PROD = "prod"
#: a kept row's reason: one of the numbered reasons in KEPT's preamble
_REASON = re.compile(r"^\((?:[1-9]|10)\)")


# -- shared: the parameters and fields that have a default ---------------------

def _is_dataclass_def(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _defaulted_params(fn) -> list[tuple[str, ast.expr]]:
    a = fn.args
    positional = a.posonlyargs + a.args
    pairs = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
    pairs += [(p, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return [(p.arg, d) for p, d in pairs]


def _field_has_default(stmt: ast.AnnAssign) -> bool:
    """An init field with a default (``= value`` or ``field(default...=)``)."""
    value = stmt.value
    if value is None or "ClassVar" in ast.unparse(stmt.annotation):
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
        kw = {k.arg: k.value for k in value.keywords}
        init = kw.get("init")
        return (("default" in kw or "default_factory" in kw)
                and not (isinstance(init, ast.Constant) and init.value is False))
    return True


def _is_literal(expr: ast.expr) -> bool:
    try:
        ast.literal_eval(expr)
    except ValueError:
        return False
    return True


def walk_source(path: Path, rel: str):
    """Functions and dataclasses of one file.

    Returns ``(functions, classes)``: ``functions[firstline] = (qualname,
    end line, [(param, default expr)])`` with the first decorator's line
    as the first line (what ``co_firstlineno`` reports), and
    ``classes[qualname] = (line, [(field, default expr)])``.
    """
    tree = ast.parse(path.read_text(), filename=rel)
    functions, classes = {}, {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qual = prefix + child.name
                functions[first] = (qual, child.end_lineno, _defaulted_params(child))
                visit(child, qual + ".")
            elif isinstance(child, ast.ClassDef):
                qual = prefix + child.name
                if _is_dataclass_def(child):
                    classes[qual] = (child.lineno, [
                        (s.target.id, s.value) for s in child.body
                        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                        and _field_has_default(s)
                    ])
                visit(child, qual + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return functions, classes


# -- recorder: runs inside every process of the suite under census -------------

class Recorder:
    def __init__(self, mode: str, out: str, src: str):
        self.mode, self.out = mode, out
        self.src = os.path.abspath(src) + os.sep
        self.root = os.path.dirname(self.src.rstrip(os.sep)) + os.sep
        self.package = os.path.basename(self.src.rstrip(os.sep))
        self._rel: dict[str, str | None] = {}  # co_filename -> path under root
        # The tables below are keyed by id(code), not by the code object:
        # code objects compare by content and ignore co_filename, so the
        # same two-line method at the same line of two files would be one
        # key.  `_alive` keeps every keyed code object, so no id is reused.
        self._alive: list = []
        self.entered: dict = {}  # id(code) -> "rel:firstline" (funcs, args)
        self.lines: dict = {}  # id(code) -> set of line numbers (lines)
        self.todo: dict = {}  # id(code) -> [(param, default)] still only default
        self.gen_start: dict = {}  # generator id(code) -> f_lasti on its first call event
        self.nondefault: dict[str, set[str]] = {}  # "rel:firstline" -> params
        self.dc_todo: dict = {}  # __init__ id(code) -> [(field, default, class key)]
        self.dc_seen: set[str] = set()
        self.dc_nondefault: dict[str, set[str]] = {}

    def rel(self, filename: str) -> str | None:
        try:
            return self._rel[filename]
        except KeyError:
            full = os.path.abspath(filename)
            rel = full[len(self.root):] if full.startswith(self.src) else None
            self._rel[filename] = rel
            return rel

    # sys.setprofile callbacks -------------------------------------------------

    def profile_funcs(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in self.entered:
                self._alive.append(code)
                rel = self.rel(code.co_filename)
                self.entered[id(code)] = rel and f"{rel}:{code.co_firstlineno}"

    def profile_args(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        key = id(code)
        todo = self.todo.get(key)
        if todo is None:
            todo = self.todo[key] = self._first_call(frame)
        if todo:
            # a generator gets a call event per resume; its parameters are
            # what the caller passed only on the first
            if self.gen_start.get(key, frame.f_lasti) != frame.f_lasti:
                return
            values = frame.f_locals
            hit = {p for p, d in todo if p in values and not _same(values[p], d)}
            if hit:
                self.todo[key] = [(p, d) for p, d in todo if p not in hit]
                self.nondefault.setdefault(self.entered[key], set()).update(hit)
        elif code.co_filename == "<string>" and code.co_name == "__init__":
            self._dataclass_init(frame)

    def _first_call(self, frame) -> list:
        code = frame.f_code
        self._alive.append(code)
        rel = self.rel(code.co_filename)
        self.entered[id(code)] = rel and f"{rel}:{code.co_firstlineno}"
        if rel is None:
            return []
        # the defaults live on the function object, which a frame does not name
        fn = next((r for r in gc.get_referrers(code)
                   if isinstance(r, types.FunctionType) and r.__code__ is code), None)
        if fn is None:
            return []
        given = fn.__defaults__ or ()
        names = code.co_varnames[code.co_argcount - len(given):code.co_argcount]
        todo = [*zip(names, given), *(fn.__kwdefaults__ or {}).items()]
        if todo and code.co_flags & _GENERATOR_FLAGS:
            # where a fresh generator frame stands differs by version (-1 on
            # 3.10, the first RESUME from 3.11): take it from this first event
            self.gen_start[id(code)] = frame.f_lasti
        return todo

    def _dataclass_init(self, frame) -> None:
        cid = id(frame.f_code)  # alive: every code here went through _first_call
        todo = self.dc_todo.get(cid)
        if todo is None:
            todo = self.dc_todo[cid] = self._first_init(frame)
        if not todo:
            return
        values = frame.f_locals
        hit = {p for p, d, _ in todo if p in values and not _same(values[p], d)}
        if hit:
            self.dc_todo[cid] = [t for t in todo if t[0] not in hit]
            for p, _, key in todo:
                if p in hit:
                    self.dc_nondefault.setdefault(key, set()).add(p)

    def _first_init(self, frame):
        owner = next((k for k in type(frame.f_locals.get("self")).__mro__
                      if getattr(k.__dict__.get("__init__"), "__code__", None)
                      is frame.f_code), None)
        if owner is None or not dataclasses.is_dataclass(owner) \
                or owner.__module__.partition(".")[0] != self.package:
            return []
        todo = []
        for f in dataclasses.fields(owner):
            # a field belongs to the class that declares it, not the subclass built
            home = next(k for k in owner.__mro__
                        if f.name in k.__dict__.get("__annotations__", ()))
            key = f"{home.__module__}.{home.__qualname__}"
            self.dc_seen.add(key)
            if not f.init:
                continue
            if f.default is not dataclasses.MISSING:
                todo.append((f.name, f.default, key))
            elif f.default_factory is not dataclasses.MISSING:
                todo.append((f.name, f.default_factory(), key))
        return todo

    # sys.settrace callbacks ---------------------------------------------------

    def trace_global(self, frame, event, arg):
        code = frame.f_code
        seen = self.lines.get(id(code))
        if seen is None:
            self._alive.append(code)
            if self.rel(code.co_filename) is None:
                self.lines[id(code)] = False
                return None
            seen = self.lines[id(code)] = set()
        elif seen is False:
            return None
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    # ---------------------------------------------------------------------------

    def install(self) -> None:
        # a child started with an explicit env= that rebuilds PYTHONPATH
        # (tests do) would drop the recorder: put its directory back
        site = os.path.dirname(os.path.abspath(__file__))
        popen_init = subprocess.Popen.__init__

        def init(popen, *args, env=None, **kwargs):
            if env is not None and "CENSUS_OUT" in env:
                path = env.get("PYTHONPATH")
                env = dict(env, PYTHONPATH=site + (os.pathsep + path if path else ""))
            popen_init(popen, *args, env=env, **kwargs)

        subprocess.Popen.__init__ = init
        # Whoever switches the hook off gets the recorder back instead:
        # pytest-benchmark pauses tracer and profiler around every
        # benchmarked call, which would leave `pytest benchmarks` dark.
        if self.mode == "lines":
            hook, name = self.trace_global, "settrace"
        else:
            hook = self.profile_funcs if self.mode == "funcs" else self.profile_args
            name = "setprofile"
        self._set = getattr(sys, name)
        setattr(sys, name, lambda fn: self._set(hook if fn is None else fn))
        self._set(hook)
        getattr(threading, name)(hook)
        if self.mode == "lines":
            return
        # cProfile installs itself below sys.setprofile and leaves the hook
        # unset on disable(); benchmarks/pipeline/layers.py profiles.
        import cProfile

        class Profile(cProfile.Profile):
            def disable(self):
                super().disable()
                sys.setprofile(hook)

        cProfile.Profile = Profile

    def dump(self) -> None:
        self._set(None)
        doc: dict = {"argv": sys.argv}
        if self.mode == "lines":
            per_file: dict[str, set] = {}
            for code in self._alive:
                seen = self.lines[id(code)]
                if seen:
                    per_file.setdefault(self.rel(code.co_filename), set()).update(seen)
            doc["lines"] = {f: sorted(v) for f, v in per_file.items()}
        else:
            doc["entered"] = sorted({k for k in self.entered.values() if k})
        if self.mode == "args":
            doc["nondefault"] = {k: sorted(v) for k, v in self.nondefault.items()}
            doc["dc_seen"] = sorted(self.dc_seen)
            doc["dc_nondefault"] = {k: sorted(v) for k, v in self.dc_nondefault.items()}
        os.makedirs(self.out, exist_ok=True)
        with open(os.path.join(self.out, f"{self.mode}-{os.getpid()}.json"), "w") as fh:
            json.dump(doc, fh)


def _same(value, default) -> bool:
    """Did the frame receive the default?  (1 and 1.0 are the same value.)"""
    if value is default:
        return True
    number = (int, float)
    if type(value) is not type(default) and not (
            type(value) in number and type(default) in number):
        return False
    try:
        return bool(value == default)
    except Exception:  # e.g. an array compared with a scalar default
        return False


if __name__ == "sitecustomize" and os.environ.get("CENSUS_OUT"):
    _recorder = Recorder(os.environ["CENSUS_MODE"], os.environ["CENSUS_OUT"],
                         os.environ["CENSUS_SRC"])
    atexit.register(_recorder.dump)
    _recorder.install()


# -- run -----------------------------------------------------------------------

def run(args) -> int:
    out = Path(args.out).resolve()
    site = out / "_site"
    site.mkdir(parents=True, exist_ok=True)
    shutil.copy(__file__, site / "sitecustomize.py")
    env = dict(os.environ, CENSUS_MODE=args.mode, CENSUS_OUT=str(out),
               CENSUS_SRC=str(Path(args.src).resolve()))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(site)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.call(args.cmd, env=env)


# -- report --------------------------------------------------------------------

def _load(mode: str, specs: list[str]):
    """``[(label, [dump, ...])]`` for ``[LABEL=]DIR`` arguments."""
    runs = []
    for spec in specs:
        label, _, d = spec.rpartition("=")
        dumps = [json.loads(p.read_text()) for p in sorted(Path(d).glob(f"{mode}-*.json"))]
        if not dumps:
            raise SystemExit(f"no {mode}-*.json dumps in {d}")
        runs.append((label or Path(d).name, dumps))
    return runs


def _sources(src: Path):
    root = src.parent
    for path in sorted(src.rglob("*.py")):
        rel = str(path.relative_to(root))
        yield path, rel, walk_source(path, rel)


def load_kept(path: Path = KEPT) -> dict[str, list[tuple[str, str]]]:
    """``{section: [(pattern, reason), ...]}`` from the kept list.

    Sections are the ``## functions`` / ``## parameters`` / ``## fields``
    headings; a row is ``| `PATTERN` ... | REASON |``, every backticked
    pattern of its first cell an ``fnmatch`` pattern over the entry keys
    the report prints (``repro/pkg/mod.py Qual.name`` for a function,
    ``repro/pkg/mod.py qual(param)`` for a parameter or field).
    """
    kept: dict[str, list[tuple[str, str]]] = {}
    section = None
    for n, line in enumerate(path.read_text().splitlines(), 1):
        if line.startswith("## "):
            section = line[3:].strip()
            kept.setdefault(section, [])
        elif section and line.startswith("| `"):
            first, reason = [c.strip() for c in line.strip().strip("|").split("|", 1)]
            if not _REASON.match(reason):
                raise SystemExit(f"{path}:{n}: a kept row needs a reason (1)-(10): {line}")
            kept[section] += [(pat, reason) for pat in re.findall(r"`([^`]+)`", first)]
    return kept


def check_kept(section: str, keys: list[str]) -> int:
    """Print the *keys* the kept list's *section* does not cover, and the
    section's patterns that match no key; return how many of both."""
    patterns = load_kept().get(section, [])
    missing = [k for k in keys if not any(fnmatch(k, p) for p, _ in patterns)]
    stale = [p for p, _ in patterns if not any(fnmatch(k, p) for k in keys)]
    print(f"\n{section} {PROD} leaves, not in {KEPT.name}: {len(missing)}")
    for k in missing:
        print(f"  {k}")
    print(f"kept {section} patterns that match nothing: {len(stale)}")
    for p in stale:
        print(f"  {p}")
    return len(missing) + len(stale)


def report_funcs(src: Path, runs) -> int:
    entered: dict[str, set] = {}
    for label, dumps in runs:
        entered.setdefault(label, set()).update(k for d in dumps for k in d["entered"])
    total, by_label = 0, {}  # by_label[frozenset of labels] = [function rows]
    for _, rel, (functions, _) in _sources(src):
        for first, (qual, end, _) in sorted(functions.items()):
            total += 1
            labels = frozenset(lb for lb, e in entered.items() if f"{rel}:{first}" in e)
            by_label.setdefault(labels, []).append((rel, first, qual, end - first + 1))
    print(f"functions: {total}")
    sections = [("entered by nothing", frozenset())]
    if len(entered) > 1:
        sections += [(f"entered only by {lb}", frozenset([lb])) for lb in entered]
    for title, labels in sections:
        rows = by_label.get(labels, [])
        pkgs = Counter()
        for rel, *_, n in rows:
            pkgs[rel.split(os.sep)[1].removesuffix(".py")] += 1
        print(f"\n{title}: {len(rows)} ({sum(n for *_, n in rows)} lines)")
        if rows:
            print("  by package: " + ", ".join(f"{p} {k}" for p, k in pkgs.most_common()))
        for rel, first, qual, n in rows:
            print(f"  {rel}:{first} {qual} ({n} lines)")
    if PROD not in entered:
        return 0
    return check_kept("functions", [f"{rel} {qual}" for labels, rows in by_label.items()
                                    if PROD not in labels for rel, _, qual, _ in rows])


def _executable_lines(path: Path, rel: str) -> set[int]:
    todo, lines = [compile(path.read_text(), rel, "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(ln for *_, ln in code.co_lines() if ln)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def report_lines(src: Path, runs) -> int:
    ran: dict[str, set] = {}
    for _, dumps in runs:
        for d in dumps:
            for rel, lines in d["lines"].items():
                ran.setdefault(rel, set()).update(lines)
    total, missed = 0, []
    for path, rel, (functions, _) in _sources(src):
        text = path.read_text().splitlines()
        reprs = [(first, end) for first, (qual, end, _) in functions.items()
                 if qual.endswith("__repr__")]
        executable = _executable_lines(path, rel)
        total += len(executable)
        for ln in sorted(executable - ran.get(rel, set())):
            stripped = text[ln - 1].strip()
            kind = ("raise" if stripped.startswith("raise")
                    else "repr" if any(a <= ln <= b for a, b in reprs)
                    else "except" if stripped.startswith("except")
                    else "plain")
            missed.append((kind, rel, ln, stripped))
    kinds = Counter(k for k, *_ in missed)
    print(f"executable lines: {total}; never executed: {len(missed)} "
          f"({', '.join(f'{n} {k}' for k, n in sorted(kinds.items()))})")
    for kind, rel, ln, stripped in missed:
        print(f"  {kind:6s} {rel}:{ln}: {stripped}")
    return 0


def report_args(src: Path, runs) -> int:
    entered = {k for _, dumps in runs for d in dumps for k in d["entered"]}
    dc_seen = {k for _, dumps in runs for d in dumps for k in d["dc_seen"]}

    def setters(table: str, key: str, name: str) -> tuple[str, ...]:
        return tuple(label for label, dumps in runs
                     if any(name in d[table].get(key, ()) for d in dumps))

    params, fields, flags = [], [], 0
    for path, rel, (functions, classes) in _sources(src):
        flags += path.read_text().count(".add_argument(")
        for first, (qual, _, defaulted) in sorted(functions.items()):
            key = f"{rel}:{first}"
            if key in entered:
                params += [(key, qual, p, expr, setters("nondefault", key, p))
                           for p, expr in defaulted]
        module = rel[:-3].replace(os.sep, ".").removesuffix(".__init__")
        for qual, (line, defaulted) in sorted(classes.items()):
            key = f"{module}.{qual}"
            if key in dc_seen:
                fields += [(f"{rel}:{line}", qual, f, expr, setters("dc_nondefault", key, f))
                           for f, expr in defaulted]
    print(f".add_argument( calls under {src.name}: {flags}")
    for title, rows in (("parameters with a default, on functions that ran", params),
                        ("dataclass fields with a default, on classes constructed", fields)):
        by_setters = Counter(s for *_, s in rows)
        print(f"\n{title}: {len(rows)}")
        for s, n in sorted(by_setters.items(), key=lambda kv: (len(kv[0]), kv[0])):
            print(f"  {n:4d}  second value from: {', '.join(s) or 'NOTHING'}")
        never = [r for r in rows if not r[-1]]
        pkgs = Counter(r[0].split(os.sep)[1].partition(".py")[0] for r in never)
        print("  never set, by package: "
              + ", ".join(f"{p} {n}" for p, n in pkgs.most_common()))
        if rows is fields:
            config = sum(bool(CONFIG_CLASS.search(r[1])) for r in never)
            print(f"  never set, on config/spec classes ({CONFIG_CLASS.pattern}): {config}; "
                  f"on records: {len(never) - config}")
        for s in sorted({r[-1] for r in rows if len(r[-1]) <= 1}):
            print(f"\n  -- second value from {', '.join(s) or 'NOTHING'}:")
            for key, qual, name, expr, got in rows:
                if got == s:
                    mark = "=" if _is_literal(expr) else "~"
                    print(f"  {key} {qual}({name}{mark}{ast.unparse(expr)})")
    if PROD not in (label for label, _ in runs):
        return 0
    return sum(check_kept(title, [f"{key.partition(':')[0]} {qual}({name})"
                                  for key, qual, name, _, got in rows if PROD not in got])
               for title, rows in (("parameters", params), ("fields", fields)))


def report(args) -> int:
    runs = _load(args.mode, args.dirs)
    print(f"census [{args.mode}] over {', '.join(f'{l} ({len(d)} processes)' for l, d in runs)}")
    missing = {"funcs": report_funcs, "lines": report_lines, "args": report_args}[args.mode](
        Path(args.src).resolve(), runs)
    return 1 if missing else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run CMD with the recorder in every Python process")
    r.add_argument("--mode", choices=MODES, required=True)
    r.add_argument("--out", required=True, help="directory for the per-pid dumps")
    r.add_argument("--src", default=str(DEFAULT_SRC), help="package to census")
    r.add_argument("cmd", nargs="+", metavar="CMD")
    r.set_defaults(fn=run)
    s = sub.add_parser("report", help="join dumps against an AST walk of the source")
    s.add_argument("--mode", choices=MODES, required=True)
    s.add_argument("--src", default=str(DEFAULT_SRC))
    s.add_argument("dirs", nargs="+", metavar="[LABEL=]DIR")
    s.set_defaults(fn=report)
    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

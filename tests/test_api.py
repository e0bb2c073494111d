"""Tests of the public surface: the names callers and docs rely on.

Covers:
- every name in sgv.__all__ resolves
- the benchmark tracer (perfbench/tracer.py) can wrap every attribute it
  looks up, so a deleted or renamed function fails here first, and
  counts one kink search and one func call in a traced `kbar`
- README's Python quick start runs verbatim and prints the values its
  comments state
- no module of the package or the tests imports a name it never uses
- every module-level function, class and constant of the package is
  read somewhere in the package, and every method and property of its
  classes is read there as an attribute
- every field of the package's dataclasses is read as an attribute in
  the package, the tests or the benchmark, unless its class serializes
  through `dataclasses.fields`
- every parameter with a default, of a function of the package, is
  passed by some call in the package or the benchmark: an option no
  caller sets is a second writing of its default
- every such parameter of a private function is left out by some call
  in the package: a default that every call overrides is never used
- no function of the package is memoized with `functools.lru_cache` or
  `functools.cache`: a repeat is removed where it is called
- `import sgv.cli` loads neither scipy.linalg nor any of scipy's
  heavier subpackages, nor numpy.f2py or numpy.testing (which
  scipy.linalg's package init pulls in): they would set the CLI's cold
  start
"""

import ast
import contextlib
import importlib.util
import io
import math
import os
import pathlib
import re
import subprocess
import sys

import sgv
import sgv.verify

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_all_names_resolve():
    missing = [name for name in sgv.__all__ if not hasattr(sgv, name)]
    assert not missing


def test_tracer_wraps_every_target():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = sgv.verify.lambda1
    tr = tracer.Tracer()
    uninstall = tracer.install(tr)
    try:
        assert sgv.verify.lambda1 is not original
        # a wrapped function whose signature the tracer no longer fits
        # fails here, not in the benchmark's traced pass
        m = sgv.make_manifold("cosine", L=2.0 * math.pi, c=1.0, beta=0.3)
        sgv.geometry.kbar(m, 2.0, 0.0)
        assert tr.counts["quadrature.sign_change_points.calls"] == 1
        assert tr.counts["quadrature.sign_change_points.func_calls"] == 1
        # a whole record, whose calls the tracer reads by position
        # (assemble's N, ricci_min's t): one pencil per grid, 16 + 512 +
        # 1024 + 2048 cells, fiber mode 1 solved on the same pencils
        sgv.check_main_theorem(m, 0.3, 2.0, 2.0, 0.5)
        assert tr.counts["spectral.assemble.cells"] == 3600
    finally:
        uninstall()
    assert sgv.verify.lambda1 is original


def test_cli_import_skips_scipy_linalg():
    # scipy.interpolate alone brought in the other five and most of the
    # cold start of `sgv`; scipy.linalg's package init brings in
    # numpy.f2py and numpy.testing, over half of what was left; the
    # process pool is imported only by a sweep with jobs > 1
    heavy = {"scipy.linalg", "scipy.interpolate", "scipy.special",
             "scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.fft",
             "numpy.f2py", "numpy.testing", "concurrent.futures.process",
             "multiprocessing"}
    code = "import sys, sgv.cli; print(' '.join(sys.modules))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    loaded = set(done.stdout.split())
    assert "sgv.cli" in loaded
    assert not heavy & loaded


def _unused_imports(path: pathlib.Path) -> list:
    """Names a module imports but never reads; an `__all__` entry counts
    as a read, and `from __future__` imports are directives, not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    imported.setdefault(alias.asname or alias.name,
                                        node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "sgv").glob("*.py")) + \
        sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 10
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert not unused


def _defined_names(tree: ast.Module) -> dict:
    """Module-level functions, classes and constants, with their lines;
    dunder names such as `__all__` and `__version__` are protocol."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not (
                        target.id.startswith("__")
                        and target.id.endswith("__")):
                    names[target.id] = node.lineno
    return names


def _read_names(tree: ast.Module) -> set:
    """Names a module reads; an `__all__` entry counts as a read."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_dead_module_names():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "sgv").glob("*.py"))}
    used = set().union(*map(_read_names, trees.values()))
    dead = [f"{path.name}:{line} {name}"
            for path, tree in trees.items()
            for name, line in _defined_names(tree).items()
            if name not in used]
    assert not dead


def _class_members(tree: ast.Module) -> list:
    """(`Class.name`, name, line) of every method and property defined in
    a class body; dunder methods are protocol."""
    return [(f"{node.name}.{item.name}", item.name, item.lineno)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef)
            and not (item.name.startswith("__")
                     and item.name.endswith("__"))]


def test_no_dead_class_members():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "sgv").glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    dead = [f"{path.name}:{line} {member}"
            for path, tree in trees.items()
            for member, name, line in _class_members(tree)
            if name not in read]
    assert not dead


def _dataclass_fields(tree: ast.Module) -> list:
    """(`Class.name`, name, line) of every field of a dataclass whose
    methods do not serialize it through `dataclasses.fields`, which reads
    every field by name."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list)):
            continue
        if any(isinstance(call, ast.Call)
               and ast.unparse(call.func).split(".")[-1] == "fields"
               for call in ast.walk(node)):
            continue
        out += [(f"{node.name}.{item.target.id}", item.target.id,
                 item.lineno) for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)]
    return out


def test_no_dead_dataclass_fields():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "sgv").glob("*.py"))}
    readers = [ast.parse(path.read_text(encoding="utf-8"))
               for folder in ("src/sgv", "tests", "perfbench")
               for path in sorted((ROOT / folder).glob("*.py"))]
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    fields = [entry for tree in trees.values()
              for entry in _dataclass_fields(tree)]
    assert any(member == "DiameterBracket.lo" for member, _, _ in fields)
    dead = [f"{member} (line {line})" for member, name, line in fields
            if name not in read]
    assert not dead


def _defaulted_parameters(tree: ast.Module) -> list:
    """(callee, parameter, position) of every parameter with a default, of
    every function in a module.  A method's callee is its name and its
    positions skip `self`; an `__init__` is called by its class name.
    The position is None for a keyword-only parameter."""
    out = []
    methods = {id(item): node.name for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        positional = [arg.arg for arg in a.posonlyargs + a.args]
        callee = node.name
        if id(node) in methods:
            positional = positional[1:]
            if callee == "__init__":
                callee = methods[id(node)]
        first = len(positional) - len(a.defaults)
        out += [(callee, name, first + i)
                for i, name in enumerate(positional[first:])]
        out += [(callee, arg.arg, None)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                if default is not None]
    return out


def _passes(call: ast.Call, name: str, position) -> bool:
    """Whether a call passes the parameter: by keyword, by position, or
    through `*` or `**`."""
    return (any(kw.arg in (name, None) for kw in call.keywords)
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or position is not None and len(call.args) > position)


def _calls(trees) -> dict:
    """Every call in the trees, by the name it calls: a function's, or a
    method's attribute."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", None)
                calls.setdefault(name, []).append(node)
    return calls


def test_every_default_has_a_caller_that_sets_it():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src/sgv", "perfbench")
             for path in sorted((ROOT / folder).glob("*.py"))}
    calls = _calls(trees.values())
    options = [(path.stem, entry) for path, tree in trees.items()
               if path.parent.name == "sgv"
               for entry in _defaulted_parameters(tree)]
    assert ("errors", ("Unreachable", "best_alpha", 1)) in options
    unset = [f"{module}.{callee}({name})"
             for module, (callee, name, position) in options
             if not any(_passes(call, name, position)
                        for call in calls.get(callee, ()))]
    assert not unset


def test_every_private_default_is_omitted_by_some_call():
    # a private function's default that every call in the package
    # overrides is never used: the parameter should have none
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src/sgv").glob("*.py"))]
    calls = _calls(trees)
    options = [entry for tree in trees
               for entry in _defaulted_parameters(tree)
               if entry[0].startswith("_") and not entry[0].endswith("__")]
    assert ("_chain", "V", 2) in options
    always = [f"{callee}({name})" for callee, name, position in options
              if all(_passes(call, name, position)
                     for call in calls.get(callee, ()))]
    assert not always


def test_no_memoized_functions():
    # a value a record needs twice is computed once and passed on; a
    # functools cache would hide the repeat, and its state would make a
    # record's cost depend on the records run before it
    cached = [f"{path.name}:{node.lineno} {node.name}"
              for path in sorted((ROOT / "src" / "sgv").glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for d in node.decorator_list
              if ast.unparse(d.func if isinstance(d, ast.Call) else d)
              .split(".")[-1] in ("lru_cache", "cache")]
    assert not cached


_NUMBER = re.compile(r"True|False|[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")
_STATED = re.compile(_NUMBER.pattern + r"(?:\.\.\.)?")


def _stated(comment: str) -> list:
    """The values a `# ...` comment states, before its explanation."""
    value = re.split(r"\s+\(|: ", comment, maxsplit=1)[0]
    return _STATED.findall(value)


def _matches(printed: str, stated: str) -> bool:
    """Whether a printed value shows as stated: equal for booleans and
    integers, truncated for a trailing `...`, rounded otherwise."""
    if re.fullmatch(r"True|False|[-+]?\d+", stated):
        return printed == stated
    truncated = stated.endswith("...")
    mantissa, _, exp = stated.rstrip(".").partition("e")
    unit = 10.0 ** (int(exp or 0) - len(mantissa.partition(".")[2]))
    gap = float(printed) - float(stated.rstrip("."))
    if truncated:
        return 0.0 <= math.copysign(1.0, float(printed)) * gap < unit
    return abs(gap) <= 0.5 * unit * (1.0 + 1e-9)


def test_readme_python_quick_start():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(Python\)\n\n```python\n(.*?)```",
                      readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    comments = [line.split("# ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    assert len(lines) == len(comments)
    for line, comment in zip(lines, comments):
        stated = _stated(comment)
        printed = _NUMBER.findall(line)[:len(stated)]
        assert stated and len(printed) == len(stated), (line, comment)
        assert all(_matches(p, s) for p, s in zip(printed, stated)), \
            (line, comment)

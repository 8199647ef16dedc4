"""Source hygiene: no module under src/stickknots imports a name it never
uses, defines a top-level name that nothing reads, exports a function that
no other module reads, or gives a function a parameter that its body
neither reads nor deletes; no module takes a private name from another,
but for ``triple``'s ``codes._Projection``; only ``heights._lp_model``
builds a HiGHS model or sets its options; no module imports
``scipy.optimize`` outside ``heights``'s type-checking block; and the
benchmark tracer finds every function it names and sees every census
label."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stickknots"


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """Imported names that the module never reads.

    A name listed in the module's ``__all__`` counts as used, since it is
    re-exported.  ``from __future__`` imports are compiler directives and
    are skipped.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def _reads(tree: ast.Module) -> set[str]:
    """The names a module loads, reads as an attribute or imports by name."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions, classes and assignments that nothing reads.

    ``sources`` maps module names to source text.  A definition counts as
    read when its module exports it in ``__all__``, or when any module loads
    the name, reads it as an attribute or imports it by name.  Dunder names
    are skipped.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    out = []
    for mod, tree in sorted(trees.items()):
        exported = _exported(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            out += [f"{mod}.{name} (line {node.lineno})" for name in names
                    if not name.startswith("__") and name not in exported
                    and name not in read]
    return out


def test_unread_definition_detector():
    sources = {
        "a": "__all__ = ['f']\ndef f(): return _g()\ndef _g(): pass\n"
             "def _dead(): pass\nLIMIT = 3\nclass _Box: pass\n",
        "b": "from .a import LIMIT\nimport a\nx: int = a._Box\n",
    }
    assert unread_definitions(sources) == ["a._dead (line 4)", "b.x (line 3)"]


def test_no_unread_definitions():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unread_definitions(sources) == []


def unread_exports(sources: dict[str, str]) -> list[str]:
    """Functions that a module lists in ``__all__`` and no other module reads.

    ``sources`` maps module names to source text.  A function counts as
    read when a module other than its own loads the name, reads it as an
    attribute or imports it by name.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = {mod: _reads(tree) for mod, tree in trees.items()}
    out = []
    for mod, tree in sorted(trees.items()):
        exported = _exported(tree)
        elsewhere = set().union(*(r for m, r in reads.items() if m != mod))
        out += [f"{mod}.{node.name} (line {node.lineno})"
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in exported and node.name not in elsewhere]
    return out


def test_unread_export_detector():
    sources = {
        "a": "__all__ = ['f', 'g', 'h', 'K']\ndef f(): return g()\n"
             "def g(): pass\ndef h(): pass\nK = 1\n",
        "b": "from a import h\n",
    }
    assert unread_exports(sources) == ["a.f (line 2)", "a.g (line 3)"]


def test_no_unread_exports():
    # every exported function has a reader in src/, tests/ or bench/
    sources = {f"{path.parent.name}.{path.stem}": path.read_text(
        encoding="utf-8") for folder in (SRC, ROOT / "tests", ROOT / "bench")
        for path in sorted(folder.rglob("*.py"))}
    assert unread_exports(sources) == []


def unread_parameters(source: str) -> list[str]:
    """Parameters of functions that the function body never reads.

    A parameter counts as read when the body (nested functions included)
    loads it, or deletes it with ``del``, which marks it unused on purpose.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)
                and isinstance(n.ctx, (ast.Load, ast.Del))}
        out += [f"{node.name}.{a.arg} (line {node.lineno})" for a in params
                if a.arg not in read]
    return out


def test_unread_parameter_detector():
    source = ("def f(a, b, *args, c, **kw):\n    del c\n    return a\n"
              "def g(x):\n    def h(y):\n        return x\n    return h\n")
    assert unread_parameters(source) == [
        "f.b (line 1)", "f.args (line 1)", "f.kw (line 1)", "h.y (line 5)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_unused_import_detector():
    source = ("import os\nimport numpy as np\nfrom x import a, b\n"
              "__all__ = ['b']\nprint(np.zeros(1))\n")
    assert unused_imports(source) == ["a (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(sources: dict[str, str]) -> list[str]:
    """Private names that one module of the package takes from another.

    ``sources`` maps module names to source text.  A name counts when a
    module imports it by name from a sibling (``from .codes import _x``),
    or reads it as an attribute of a sibling module it imported
    (``from . import codes`` then ``codes._x``).  Each is named as
    ``importer <- module.name``.
    """
    out = set()
    for mod, src in sources.items():
        tree = ast.parse(src)
        siblings = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        siblings[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        out.add(f"{mod} <- {node.module}.{alias.name}")
        out.update(f"{mod} <- {siblings[node.value.id]}.{node.attr}"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in siblings
                   and node.attr.startswith("_") and node.attr[1:2] != "_")
    return sorted(out)


def test_private_import_detector():
    sources = {
        "a": "from .b import _f, g\nfrom . import c as cc\n"
             "x = cc._h + cc.k + cc.__name__\n",
        "b": "from typing import _T\nimport c\ny = c._z\n",
    }
    assert private_imports(sources) == ["a <- b._f", "a <- c._h"]


def test_only_triple_reads_a_private_name_of_another_module():
    # triple resolves closure schemes as flips of the one projection that
    # codes labels diagrams with, so it shares codes' _Projection
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert private_imports(sources) == ["triple <- codes._Projection"]


def highs_configurations(sources: dict[str, str],
                         allowed: str = "heights._lp_model") -> list[str]:
    """Calls that build a HiGHS model (``_Highs()``) or set one of its
    options (``setOptionValue``) outside the top-level function ``allowed``.

    ``sources`` maps module names to source text.  Each call is named by
    its module, the top-level definition that holds it and its line.
    """
    out = []
    for mod, src in sorted(sources.items()):
        for top in ast.parse(src).body:
            owner = f"{mod}.{getattr(top, 'name', '<module>')}"
            if owner == allowed:
                continue
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in ("_Highs", "setOptionValue"):
                    out.append(f"{owner}: {name} (line {node.lineno})")
    return out


def test_highs_configuration_detector():
    sources = {
        "heights": "def _lp_model(core):\n    m = core._Highs()\n"
                   "    m.setOptionValue('a', 1)\n    return m\n"
                   "def f(core):\n    return core._Highs()\n",
        "cli": "from x import _Highs\nm = _Highs()\n"
               "m.setOptionValue('b', 2)\n",
    }
    assert highs_configurations(sources) == [
        "cli.<module>: _Highs (line 2)",
        "cli.<module>: setOptionValue (line 3)",
        "heights.f: _Highs (line 6)"]


def test_one_highs_model_configuration():
    # every height LP runs on a model that _lp_model builds, so a second
    # configuration, such as one option set per caller, fails here
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert highs_configurations(sources) == []
    builder = highs_configurations(sources, allowed="")
    assert builder and all(call.startswith("heights._lp_model: ")
                           for call in builder)


def scipy_optimize_imports(sources: dict[str, str]) -> list[str]:
    """Import statements of ``scipy.optimize`` or a module under it,
    except in ``heights``'s top-level ``if TYPE_CHECKING:`` block.

    ``sources`` maps module names to source text.  Each statement is named
    by its module and line.
    """
    out = []
    for mod, src in sorted(sources.items()):
        tree = ast.parse(src)
        skip = set()
        if mod == "heights":
            skip = {id(node) for top in tree.body if isinstance(top, ast.If)
                    and getattr(top.test, "id", None) == "TYPE_CHECKING"
                    for node in ast.walk(top)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            else:
                continue
            if any(name == "scipy.optimize"
                   or name.startswith("scipy.optimize.") for name in names):
                out.append(f"{mod} (line {node.lineno})")
    return out


def test_scipy_optimize_import_detector():
    sources = {
        "heights": "from typing import TYPE_CHECKING\n"
                   "if TYPE_CHECKING:\n"
                   "    from scipy.optimize._highspy import _core\n"
                   "def _highs():\n"
                   "    from scipy.optimize._highspy import _core\n",
        "cli": "import scipy\nfrom scipy import optimize\n"
               "import scipy.optimize as so\nfrom scipy.sparse import eye\n",
    }
    assert scipy_optimize_imports(sources) == [
        "cli (line 2)", "cli (line 3)", "heights (line 5)"]


def test_no_scipy_optimize_import():
    # heights._highs loads the HiGHS binding's extension file by itself;
    # importing scipy.optimize runs its package __init__, which takes
    # about a hundred times as long and fifteen times the memory
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert scipy_optimize_imports(sources) == []


def _tracing():
    """bench/tracing.py, loaded from its file, with every package module
    it traces imported."""
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.LAYER_FUNCTIONS:
        importlib.import_module(f"{tracing.PACKAGE}.{name.split('.')[0]}")
    return tracing


def test_tracer_patches_and_restores_every_layer_function():
    # bench/tracing.py finds each traced function by name, so a rename in
    # src/ fails here rather than in a benchmark run
    tracer = _tracing().Tracer()
    try:
        tracer.install()
    finally:
        assert tracer.restore()


def test_traced_census_labels_every_walked_cell_through_classify():
    # the census labels each walked cell with BracketTable.classify, so a
    # traced census counts one span per walked cell: half of a clean
    # class's feasible assignments, or its one cell without crossings
    from stickknots.constructions import search_ngon
    tracer = _tracing().Tracer()
    try:
        tracer.install()
        catalog = search_ngon(7)
    finally:
        assert tracer.restore()
    spans = sum(name == "codes.BracketTable.classify"
                for name, *_ in tracer.spans)
    walked = sum(r.feasible // 2 if r.crossings else 1
                 for r in catalog.records if not r.degenerate)
    assert spans == walked == 347

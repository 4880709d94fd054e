"""Source hygiene: no module imports a name it never uses, the package
imports nothing heavier than numpy, scipy.linalg and scipy.sparse, scipy
only inside `fv.scipy_routines` and numpy at module level only in `fv`,
only `cli` reads JSON, every private module-level name is used somewhere
in the package, and `studies` builds every row in one function."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "coldplate").glob("*.py"))
# package __init__ modules import only to re-export
MODULES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")))
# Start-up time is interpreter start plus imports; every other third-party
# module (scipy.optimize, say) would add to each CLI run and worker process.
ALLOWED_THIRD_PARTY = {"numpy", "scipy.linalg", "scipy.sparse"}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(
        imported.items(), key=lambda item: item[1]) if name not in used]


def imported_modules(node) -> list[str]:
    """The modules an import statement names absolutely; [] for any other
    node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def absolute_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every absolute import."""
    return [(node.lineno, module) for node in ast.walk(ast.parse(source))
            for module in imported_modules(node)]


def scopes(source: str, matches) -> set[str]:
    """Qualified name of the innermost function or class around each node
    for which matches(node) is true; "" for a node at module level."""
    found = set()

    def visit(node, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if matches(node):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)
    visit(ast.parse(source), "")
    return found


def disallowed_imports(source: str) -> list[str]:
    """Absolute imports of modules outside the stdlib and the allowed set."""
    return [f"line {line}: {m}" for line, m in absolute_imports(source)
            if m not in ALLOWED_THIRD_PARTY
            and m.split(".")[0] not in sys.stdlib_module_names]


def imports_of(source: str, module: str) -> list[str]:
    """Absolute imports of `module` or of one of its submodules."""
    return [f"line {line}: {m}" for line, m in absolute_imports(source)
            if m.split(".")[0] == module]


def test_detects_unused_import():
    source = "import os\nimport sys\nfrom a.b import c, d as e\nprint(sys, e)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT)
                         .as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_disallowed_import():
    source = ("import os.path\nimport numpy as np\n"
              "from scipy.sparse.linalg import cg\nfrom . import fv\n"
              "def f():\n    from scipy import optimize\n"
              "    import threadpoolctl, scipy.optimize\n")
    assert disallowed_imports(source) == [
        "line 3: scipy.sparse.linalg", "line 6: scipy",
        "line 7: threadpoolctl", "line 7: scipy.optimize"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT)
                         .as_posix())
def test_package_imports_stay_light(path):
    assert disallowed_imports(path.read_text()) == []


def import_scopes(source: str, module: str) -> set[str]:
    """The scopes (see `scopes`) of the absolute imports of `module` or of
    one of its submodules."""
    return scopes(source, lambda node: any(
        m.split(".")[0] == module for m in imported_modules(node)))


def test_detects_import_scopes():
    source = ("import numpy as np\nif np:\n    from scipy import linalg\n"
              "def f():\n    import numpy.linalg\n    def g():\n"
              "        from scipy.sparse import csr_matrix\n"
              "class C:\n    import numpyish\n")
    assert import_scopes(source, "numpy") == {"", "f"}
    assert import_scopes(source, "scipy") == {"", "f.g"}


def test_scipy_and_numpy_load_only_where_fv_needs_them():
    # an action that solves no FV starts without numpy or scipy: scipy is
    # imported in one function of fv, and numpy at module level only by fv,
    # which cli and studies import inside their FV paths
    for path in PACKAGE:
        source = path.read_text()
        assert import_scopes(source, "scipy") == (
            {"scipy_routines"} if path.name == "fv.py" else set()), path.name
        if path.name != "fv.py":
            assert "" not in import_scopes(source, "numpy"), path.name


def test_detects_imports_of():
    source = ("import json\nimport jsonschema\nfrom json import loads\n"
              "from . import json_tools\ndef f():\n    import json.decoder\n")
    assert imports_of(source, "json") == [
        "line 1: json", "line 3: json", "line 6: json.decoder"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "cli.py"],
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_only_cli_reads_json(path):
    # one reader: cli reads, checks and merges every config document, the
    # materials file included; the other modules hold records and tables
    assert imports_of(path.read_text(), "json") == []


def _private_names(node) -> list[str]:
    """Private (single-underscore) names a module-level statement binds:
    a function, a class or a constant."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _referenced(node) -> set[str]:
    """Names a statement reads, as a bare name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no other module-level statement of
    the sources reads; a function calling only itself is unreferenced."""
    statements = [(name, node) for name, source in sources.items()
                  for node in ast.parse(source).body]
    reads = [(node, _referenced(node)) for _, node in statements]
    return [f"{name} line {node.lineno}: {private}"
            for name, node in statements for private in _private_names(node)
            if not any(private in names for other, names in reads
                       if other is not node)]


def test_detects_unreferenced_privates():
    sources = {"a.py": "_K = 1\n_USED = 2\ndef _f():\n    return _f()\n"
                       "class _C:\n    pass\n__all__ = []\n",
               "b.py": "from a import _USED\nx = _USED + a._C.__name__\n"}
    assert unreferenced_privates(sources) == ["a.py line 1: _K",
                                              "a.py line 3: _f"]


def test_no_unreferenced_privates():
    # a helper or constant left behind by a change is dead code
    assert unreferenced_privates(
        {p.name: p.read_text() for p in PACKAGE}) == []


def callers(source: str, name: str) -> set[str]:
    """The scopes (see `scopes`) of the calls of `name`, called bare or as
    an attribute."""
    return scopes(source, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_detects_callers():
    source = ("def f():\n    g(1)\n    def h():\n        return m.g()\n"
              "    return h, lambda: g()\ng()\nclass C:\n    def f(self):\n"
              "        return g\n")
    assert callers(source, "g") == {"f", "f.h", ""}


def test_studies_builds_every_row_in_one_function():
    # one row builder: sweep, replay and optimize rows all come from
    # studies._row, which alone evaluates a design point and states the
    # feasibility rule
    source = (ROOT / "src" / "coldplate" / "studies.py").read_text()
    assert callers(source, "StudyRow") == {"_row"}
    assert callers(source, "evaluate_design") == {"_row"}


def test_studies_builds_every_fv_grid_in_one_function():
    # every FV design point of a sweep or optimize builds its own grid in
    # studies.evaluate_design; no study passes a grid on to a point
    source = (ROOT / "src" / "coldplate" / "studies.py").read_text()
    assert callers(source, "build_grid") == {"evaluate_design"}

"""Source hygiene: no module imports a name it never uses, the package
imports nothing heavier than numpy and scipy.sparse, and only `cli` reads
JSON."""

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
ALLOWED_THIRD_PARTY = {"numpy", "scipy.sparse", "scipy.sparse.linalg"}


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


def absolute_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every absolute import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
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
        "line 6: scipy", "line 7: threadpoolctl", "line 7: scipy.optimize"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT)
                         .as_posix())
def test_package_imports_stay_light(path):
    assert disallowed_imports(path.read_text()) == []


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

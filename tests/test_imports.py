"""No module of the package or demo script imports a name it never uses,
only the command line resolves the environment's tolerance, and only
numerics reads the rank threshold."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "qlattice").glob("*.py"))
# __init__.py imports names only to re-export them
SOURCES = [p for p in LIBRARY if p.name != "__init__.py"] + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_detects_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nos.sep\ne\n") == ["c"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# the command line reads QLATTICE_EPS; tolerances defines the reader and
# __init__ re-exports it
ENV_READERS = {"cli.py", "tolerances.py", "__init__.py"}


def tolerance_boundary_violations(source: str, may_read_env: bool) -> list[str]:
    """Uses of default_tolerance where the module may not read the
    environment, and parameters named tol that default to None."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name == "default_tolerance" and not may_read_env:
            found.append(f"line {node.lineno}: default_tolerance")
        if isinstance(node, ast.arguments):
            positional = node.posonlyargs + node.args
            # defaults align with the last positional parameters
            pairs = (list(zip(positional[::-1], node.defaults[::-1]))
                     + list(zip(node.kwonlyargs, node.kw_defaults)))
            found += [f"line {arg.lineno}: tol=None" for arg, default in pairs
                      if arg.arg == "tol" and isinstance(default, ast.Constant)
                      and default.value is None]
    return found


def test_detects_tolerance_boundary_violation():
    snippet = ("from .tolerances import default_tolerance\n"
               "def f(x, tol=None, *, k=1):\n    return tolerances.default_tolerance()\n"
               "def g(*, tol=None):\n    pass\n"
               "def h(tol=DEFAULT):\n    pass\n")
    assert set(tolerance_boundary_violations(snippet, may_read_env=False)) == {
        "line 1: default_tolerance", "line 2: tol=None", "line 3: default_tolerance",
        "line 4: tol=None"}
    assert set(tolerance_boundary_violations(snippet, may_read_env=True)) == {
        "line 2: tol=None", "line 4: tol=None"}


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_tolerance_boundary(path):
    assert tolerance_boundary_violations(path.read_text(encoding="utf-8"),
                                         may_read_env=path.name in ENV_READERS) == []


# every rank decision goes through numerics.rank_cutoff; tolerances defines
# and validates the field
RANK_EPS_READERS = {"numerics.py", "tolerances.py"}


def rank_eps_reads(source: str) -> list[str]:
    """Reads of a rank_eps attribute (a keyword argument is not a read)."""
    return [f"line {node.lineno}: rank_eps" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "rank_eps"]


def test_detects_rank_eps_read():
    snippet = ("if w <= tol.rank_eps:\n    pass\n"
               "t = Tolerance(rank_eps=1e-9)\n"
               "cut = DEFAULT.rank_eps * 2\n")
    assert rank_eps_reads(snippet) == ["line 1: rank_eps", "line 4: rank_eps"]


@pytest.mark.parametrize("path", [p for p in LIBRARY if p.name not in RANK_EPS_READERS],
                         ids=lambda p: p.name)
def test_rank_eps_read_only_by_numerics(path):
    assert rank_eps_reads(path.read_text(encoding="utf-8")) == []

"""No module of the package imports or reads another module's private names,
none imports scipy when it is itself imported, and the scalar modules do not
import numpy.

Shared helpers live under public names (for example `market.deflator_context`);
a leading underscore means the name belongs to its own module alone. scipy
serves only the array kernels, which import it inside the function, so the
commands that evaluate no surface never load it. numpy serves only the array
path (`surface`, `montecarlo`, `baseline`, `simplex`), which the CLI imports
inside the commands that use it (`tests/test_cli.py` checks in a fresh
interpreter that `solve` and `frontier` never load it).  No module runs
work on a thread pool, so importing the CLI or `baseline` does not load
`concurrent.futures`.  Every name a module lists in `__all__` exists, so a
deletion cannot leave a stale export behind.
"""
import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

import capfolio

PACKAGE = "capfolio"
SOURCES = sorted(Path(capfolio.__file__).parent.glob("*.py"))
#: modules on the scalar path: they run on floats, with no numpy
SCALAR_MODULES = (
    "__init__", "cli", "cvar", "errors", "kernels", "lpm", "market", "meanvar", "solvers",
)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(source: str) -> list[str]:
    """Lines where the source imports or reads a private name of another
    package module, through `from .mod import _x`, `from . import mod` then
    `mod._x`, or `import capfolio.mod` then `capfolio.mod._x`."""
    tree = ast.parse(source)
    modules = set()  # local names bound to package modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != PACKAGE:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                elif node.module is None or node.module == PACKAGE:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    modules.add(alias.asname or PACKAGE)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"line {node.lineno}: reads {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_reads_another_modules_private_names(path):
    assert _private_reads(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .lpm import _ramp\n",
        "from capfolio.kernels import _h1_start\n",
        "from . import lpm\nlpm._ramp(ctx, 0.0, 1.0, 1.0)\n",
        "from . import lpm as l\nf = l._h\n",
        "import capfolio.lpm\ncapfolio.lpm._h(ctx, 0.0, 1.0)\n",
    ],
)
def test_checker_flags_private_reads(source):
    assert _private_reads(source)


def test_checker_allows_public_and_own_names():
    source = (
        "from __future__ import annotations\n"
        "from . import lpm\n"
        "from .lpm import TERMINAL_NU\n"
        "import numpy as np\n"
        "def _own(x):\n"
        "    return lpm.payoff(x)._fields, np._NoValue, lpm.__name__\n"
    )
    assert _private_reads(source) == []


def _module_level_imports(source: str) -> list[tuple[int, str]]:
    """(line, top-level package) of every absolute import that runs when the
    module is imported, i.e. every one outside a function body."""
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
        stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_imports_scipy_at_module_level(path):
    imports = _module_level_imports(path.read_text())
    assert [line for line, name in imports if name == "scipy"] == []


@pytest.mark.parametrize(
    "source",
    [
        "from scipy.special import erfc\n",
        "import numpy as np, scipy.linalg as la\n",
        "try:\n    import scipy\nexcept ImportError:\n    scipy = None\n",
        "class Solver:\n    from scipy import optimize\n",
    ],
)
def test_checker_flags_module_level_scipy(source):
    assert "scipy" in [name for _, name in _module_level_imports(source)]


def test_checker_allows_scipy_inside_a_function():
    source = (
        "import numpy as np\n"
        "from .errors import DomainError\n"
        "def cdf(y):\n"
        "    from scipy.special import erfc\n"
        "    return erfc(y)\n"
    )
    assert _module_level_imports(source) == [(1, "numpy")]


@pytest.mark.parametrize("name", SCALAR_MODULES)
def test_scalar_modules_import_no_numpy_at_module_level(name):
    path = Path(capfolio.__file__).parent / f"{name}.py"
    imports = _module_level_imports(path.read_text())
    assert [line for line, package in imports if package == "numpy"] == []


def test_checker_flags_module_level_numpy():
    source = "import math\nfrom numpy.polynomial.legendre import leggauss\n"
    assert "numpy" in [name for _, name in _module_level_imports(source)]


def test_cli_and_baseline_imports_load_no_thread_pool():
    src = str(Path(capfolio.__file__).resolve().parents[1])
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import capfolio.cli, capfolio.baseline; "
        "print('concurrent.futures' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, check=True, timeout=120
    )
    assert proc.stdout.split() == ["False"]


def _stale_exports(module) -> list[str]:
    """Names in the module's `__all__` that it does not define."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_name_in_all_resolves(path):
    name = PACKAGE if path.stem == "__init__" else f"{PACKAGE}.{path.stem}"
    assert _stale_exports(importlib.import_module(name)) == []


def test_checker_flags_a_stale_export():
    module = types.ModuleType("probe")
    module.solve = print
    module.__all__ = ["solve", "classify"]
    assert _stale_exports(module) == ["classify"]

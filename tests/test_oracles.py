"""What ``tests/oracles.py`` may import.

The benchmark executes the oracles in every process it measures, so an
import there (pytest, hypothesis) lands in the benchmark's setup time.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")
ALLOWED = {"__future__", "numpy", "scatterkit"}


def imported_packages(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # a relative import names a module beside the oracles
            yield "." * node.level + (node.module or "").split(".")[0]


def test_oracles_import_only_numpy_and_the_package():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    packages = set(imported_packages(tree))
    assert packages <= ALLOWED, sorted(packages - ALLOWED)
    assert {"numpy", "scatterkit"} <= packages  # the walk sees the imports


def test_the_import_walk_sees_every_form():
    source = (
        "import pytest\n"
        "from hypothesis import given\n"
        "from . import generators\n"
        "def f():\n"
        "    import os.path\n"
    )
    assert set(imported_packages(ast.parse(source))) == {
        "pytest", "hypothesis", ".", "os"
    }

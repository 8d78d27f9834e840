"""Smoke test: the quick demos run to completion against the current API.

Demo 04 trains for tens of seconds and is left to manual runs; what every
demo imports from the package is checked without running it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtabl

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_layer_mechanics", "02_gradient_checking",
                                  "03_complexity_accounting", "05_order_book_pipeline"])
def test_demo_runs(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_package_exports_what_the_demos_import():
    assert all(hasattr(mtabl, name) for name in mtabl.__all__)
    imported = {(path.name, alias.name)
                for path in (ROOT / "demos").glob("*.py")
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.module == "mtabl"
                for alias in node.names}
    assert imported
    assert sorted(pair for pair in imported if pair[1] not in mtabl.__all__) == []

"""Checks on the project itself: the pytest settings and the public API."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gsalab

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = Path(gsalab.__file__).resolve().parent

PLANTED_PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted_failure(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_falsified_hypothesis_example_does_not_hide_later_tests(tmp_path):
    # under filterwarnings = error, a deprecation warning from hypothesis's
    # report hook used to end the session with INTERNALERROR and "1 failed",
    # so the passing test after the planted failure never ran
    (tmp_path / "test_pair.py").write_text(PLANTED_PAIR)
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
    assert proc.returncode == 1


def test_every_public_definition_has_a_caller_in_the_package():
    # a public module-level def or class that only tests call is code the
    # program does not need; __init__ re-exports do not count as callers
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = [(node.id if isinstance(node, ast.Name) else node.attr, top)
            for path, tree in trees.items() if path.name != "__init__.py"
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = [f"{path.name}::{d.name}"
              for path, tree in trees.items() for d in tree.body
              if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_")
              and not any(name == d.name and top is not d for name, top in uses)]
    assert unused == []

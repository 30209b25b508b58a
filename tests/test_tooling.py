"""Checks on the project itself: the pytest settings, the public API, the
package's imports and the benchmark's hook targets."""

import ast
import importlib.util
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gsalab
from gsalab import cli

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


def _is_selftest(path, top):
    return path.name == "cli.py" and getattr(top, "name", None) == "_selftest_checks"


def _public_definitions(tree):
    """(label, name, node) of each public module-level def and class, and of
    each public method, property and class-level alias of a class; dataclass
    fields are annotated assignments and do not count."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
            yield top.name, top.name, top
        if isinstance(top, ast.ClassDef):
            for member in top.body:
                if isinstance(member, ast.FunctionDef):
                    names = [member.name]
                elif isinstance(member, ast.Assign):
                    names = [t.id for t in member.targets if isinstance(t, ast.Name)]
                else:
                    names = []
                for name in names:
                    if not name.startswith("_"):
                        yield f"{top.name}.{name}", name, member


def _package_trees():
    return {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _package_reads(trees):
    """(node, name) of each read of a name or attribute in the package,
    outside the __init__ re-exports and the selftest."""
    return [(node, node.id if isinstance(node, ast.Name) else node.attr)
            for path, tree in trees.items() if path.name != "__init__.py"
            for top in tree.body if not _is_selftest(path, top) for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]


def test_every_public_definition_has_a_caller_in_the_package():
    # a public def, class, method, property or class-level alias that only
    # tests call is code the program does not need.  A caller is a read of
    # its name outside its own definition: an assignment, such as a second
    # class's alias of the same name, is not one, nor is an __init__
    # re-export, nor the selftest, which would otherwise keep alive any code
    # it checks
    trees = _package_trees()
    uses = _package_reads(trees)
    unused = []
    for path, tree in trees.items():
        for label, name, d in _public_definitions(tree):
            own = {id(node) for node in ast.walk(d)}
            if not any(used == name and id(node) not in own for node, used in uses):
                unused.append(f"{path.name}::{label}")
    assert unused == []


def test_every_module_constant_is_read_in_the_package():
    # an UPPER_CASE module constant that nothing reads is a knob left behind
    # by the code that used it; its own assignment is not a read
    trees = _package_trees()
    uses = _package_reads(trees)
    unread = []
    for path, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.Assign, ast.AnnAssign)):
                own = {id(node) for node in ast.walk(top)}
                for node in ast.walk(top):
                    if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                            and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", node.id)
                            and not any(used == node.id and id(read) not in own
                                        for read, used in uses)):
                        unread.append(f"{path.name}::{node.id}")
    assert unread == []


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
TRACING = BENCHMARKS / "tracing.py"
# Hooks on functions the package no longer has: grid_then_golden_min left
# with the shell chain, integrate_doubling once the Jensen sums read radial's
# node tables, and golden_section_max, with its module gsalab.golden, once
# optimize_s solved the first-order condition.  ROADMAP item 1's benchmark
# change removes these hooks.
STALE_HOOKS = {("gsalab.radial", "grid_then_golden_min"),
               ("gsalab.radial", "integrate_doubling"),
               ("gsalab.radial", "golden_section_max"),
               ("gsalab.golden", "golden_section_max")}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_target_resolves():
    # the benchmark's tracer skips an absent hook target, so a rename in the
    # package would silently drop a per-layer metric; read HOOKS without
    # installing any of them.  An exemption holds only while its hook is in
    # HOOKS and its target is really gone, so none outlives its reason; an
    # exempted hook's module may be gone too, any other must import
    tracing = _load("benchmark_tracing", TRACING)
    missing, revived = [], []
    for _, module_name, path, _ in tracing.HOOKS:
        try:
            owner = importlib.import_module(module_name)
        except ModuleNotFoundError:
            if (module_name, path) not in STALE_HOOKS:
                raise
            owner = None
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if (module_name, path) in STALE_HOOKS:
            if owner is not None:
                revived.append(f"{module_name}.{path}")
        elif owner is None:
            missing.append(f"{module_name}.{path}")
    assert missing == []
    assert revived == []
    assert STALE_HOOKS <= {(module_name, path) for _, module_name, path, _ in tracing.HOOKS}


def test_the_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency pyproject declares; scipy and the
    # other test extras stay out of the package, root solves included
    tomllib = pytest.importorskip("tomllib")
    declared = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    assert [re.match(r"[\w-]+", dep).group() for dep in declared] == ["numpy"]
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    foreign = sorted((name, top) for name, top in found
                     if top not in sys.stdlib_module_names and top != "numpy")
    assert foreign == []
    assert ("radial.py", "numpy") in found


def test_importing_the_cli_leaves_out_concurrent_futures_and_logging():
    # the benchmark's setup_s times `import gsalab.cli`; concurrent.futures
    # pulls in logging (3.4 ms of an 85 ms import, by -X importtime), so
    # estimate_gsa_facets imports it only when it starts its draw helper
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    code = ("import sys, gsalab.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_benchmark_oracles_pass_on_the_first_ops_of_each_workload(tmp_path):
    # the benchmark checks every op's report against an oracle that calls the
    # package (the scan oracle integrates by the adaptive rule); a change that
    # breaks that route would otherwise only show as a failed benchmark run
    workloads = _load("benchmark_workloads", BENCHMARKS / "workloads.py")
    for name in workloads.NAMES:
        for op, argv in enumerate(itertools.islice(workloads.ops(name, 101), 2)):
            report = tmp_path / f"{name}-{op}.json"
            assert cli.main(argv + ["--json", str(report)]) == 0, argv
            doc = json.loads(report.read_text())
            assert workloads.check(name, argv, doc) == [], argv

"""The package's public surface covers every name its scripts use.

The demos import names ``from bellsim``, and the benchmark workloads
read ``bs.<name>`` after ``import bellsim as bs``; each of those names
must be in ``bellsim.__all__``.
"""

import ast
import pathlib

import bellsim

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _demo_imports():
    for script in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "bellsim":
                yield from (alias.name for alias in node.names)


def _workload_reads():
    tree = ast.parse((ROOT / "benchmarks" / "workloads.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "bs":
            yield node.attr


def test_scripts_use_only_exported_names():
    exported = set(bellsim.__all__)
    assert len(bellsim.__all__) == len(exported)
    for name in bellsim.__all__:
        getattr(bellsim, name)
    demo_names = set(_demo_imports())
    workload_names = set(_workload_reads())
    assert demo_names and workload_names
    assert demo_names - exported == set()
    assert workload_names - exported == set()

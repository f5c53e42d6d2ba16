"""The package names the benchmark harness in ``perfbench/`` relies on.

``perfbench/spans.py`` rebinds the functions it traces by module and
attribute name, and ``checks.py`` and ``workloads.py`` import package names
directly, so renaming one of them in the package crashes benchmark runs;
these tests make such a rename fail in the test suite first.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from spinpb import HilbertConfig, SystemParams, build_liouvillian

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str, monkeypatch):
    """Execute ``perfbench/<name>.py`` as module ``name``, as run.py imports it.

    The module stays in ``sys.modules`` for the test: dataclasses and
    ``checks.py``'s ``from workloads import ...`` look it up there.
    """
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve_to_callables(monkeypatch):
    spans = load("spans", monkeypatch)
    for module, attr, name, _label in spans.TARGETS:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr} (span {name}) is not callable"


def test_liouvillian_matrix_is_dense():
    # checks._null_vector_state takes np.linalg.svd of the matrix and
    # checks._check_tau takes scipy.linalg.expm of it: both need an ndarray
    params = SystemParams(gamma=1.0, omega_b=20.0, E=0.05)
    matrix = build_liouvillian(params, HilbertConfig(3, 3)).matrix
    assert type(matrix) is np.ndarray


def test_checks_and_workloads_import_and_resolve(monkeypatch):
    load("workloads", monkeypatch)
    load("checks", monkeypatch)
    imported = set()
    for name in ("checks", "workloads"):
        tree = ast.parse((PERFBENCH / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[0] == "spinpb":
                for alias in node.names:
                    module = importlib.import_module(node.module)
                    assert hasattr(module, alias.name), \
                        f"perfbench/{name}.py: {node.module}.{alias.name} is gone"
                    imported.add(alias.name)
    assert {"params_from_dict", "manifest_path_for", "CONVERGENCE_BOUND",
            "steady_amplitudes", "build_hamiltonian", "annihilation",
            "DensityMatrix"} <= imported

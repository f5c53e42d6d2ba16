"""The package names the benchmark harness in ``perfbench/`` relies on.

``perfbench/spans.py`` rebinds the functions it traces by module and
attribute name, so renaming one of them in the package crashes traced runs;
these tests make such a rename fail in the test suite first.
"""

import importlib.util
from pathlib import Path

import numpy as np

from spinpb import HilbertConfig, SystemParams, build_liouvillian

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_targets_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, name, _label in spans.TARGETS:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr} (span {name}) is not callable"


def test_liouvillian_matrix_is_dense():
    # checks._null_vector_state takes np.linalg.svd of the matrix and
    # checks._check_tau takes scipy.linalg.expm of it: both need an ndarray
    params = SystemParams(gamma=1.0, omega_b=20.0, E=0.05)
    matrix = build_liouvillian(params, HilbertConfig(3, 3)).matrix
    assert type(matrix) is np.ndarray

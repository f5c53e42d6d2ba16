"""Public API: the package root's exports and the README's quick start."""

import re
from pathlib import Path

import spinpb

README = Path(__file__).resolve().parent.parent / "README.md"

# a new export is a deliberate edit to this list
PUBLIC = [
    "AxisSpec", "ConfigError", "HilbertConfig", "SolverError", "SpinGeometry",
    "SweepSpec", "SystemParams", "build_hamiltonian",
    "build_liouvillian", "effective_kerr", "find_optimal_pairs",
    "g2_analytic", "g2_tau", "g2_zero", "mandel_q", "run_g2tau",
    "run_optimal", "run_sweep", "sagnac_shift", "steady_amplitudes",
    "steady_state",
]


def test_all_is_pinned():
    assert sorted(spinpb.__all__) == PUBLIC


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from spinpb import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_readme_api_paragraph_lists_all():
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("**Public API.**", 1)[1].split("\n\n", 1)[0]
    count = re.search(r"exports (\d+) names", paragraph)
    assert int(count.group(1)) == len(spinpb.__all__)
    assert [n for n in spinpb.__all__ if f"`{n}`" not in paragraph] == []


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README quick start", "exec"), {})

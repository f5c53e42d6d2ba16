"""The CLI's outputs against the committed record of ``reference_record.py``.

Each value is compared at a relative tolerance of 1e-9, not byte for byte,
so that another BLAS does not fail the test; byte-identical reruns are
tested in ``test_sweep.py``.  The one exception is the pair search's
residual |c02| at a root, which is rounding noise (2.8e-21 to 6.0e-20 in the
record): it is checked against the bound 1e-15 instead.  The convergence
delta |high - low| / |low| is compared to an absolute 2 RTOL (1 + delta),
since both probed values are held to RTOL, and the failure records
exactly.
"""

import json

import numpy as np
import pytest

from reference_record import RECORD, compute

RTOL = 1e-9
RESIDUAL_BOUND = 1e-15

REFERENCE = json.loads(RECORD.read_text())
RUNS = [("presets", name) for name in REFERENCE["presets"]] + [
    ("fig7b_probe", size) for size in REFERENCE["fig7b_probe"]] + [
    ("layouts", name) for name in REFERENCE["layouts"]] + [
    ("optimal", None), ("g2tau", None)]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return compute(tmp_path_factory.mktemp("reference"))


def entry(record: dict, group: str, name: str | None) -> dict:
    return record[group] if name is None else record[group][name]


@pytest.mark.parametrize("group, name", RUNS, ids=[f"{g}:{n}" if n else g for g, n in RUNS])
def test_matches_record(outputs, group, name):
    got, want = entry(outputs, group, name), entry(REFERENCE, group, name)
    assert (got["converged"], got["failures"]) == (want["converged"], want["failures"])
    if want["delta"] is None:
        assert got["delta"] is None
    else:
        assert abs(got["delta"] - want["delta"]) <= 2 * RTOL * (1 + want["delta"])
    got_table, want_table = np.array(got["table"]), np.array(want["table"])
    assert got_table.shape == want_table.shape
    if group == "optimal":   # the residual column is checked by its bound
        assert np.all(got_table[:, -1] <= RESIDUAL_BOUND)
        got_table, want_table = got_table[:, :-1], want_table[:, :-1]
    np.testing.assert_allclose(got_table, want_table, rtol=RTOL, atol=0)


def test_record_covers_fig7b_probed_cell():
    # the full fig7b preset probes delta = -0.64 omega_b, E = 0.2 gamma: it
    # is unconverged at 5x5 (1.71e-4 to 6x6) and converged at 6x6
    probe = REFERENCE["fig7b_probe"]
    assert [row[0] for row in probe["5x5"]["table"]] == [0.001, 0.2]
    assert (probe["5x5"]["converged"], probe["6x6"]["converged"]) == (False, True)
    low, high = (probe[size]["table"][1][1] for size in ("5x5", "6x6"))
    assert 1e-4 < abs(high - low) / abs(low) < 2e-4
    assert len(REFERENCE["presets"]) == 15

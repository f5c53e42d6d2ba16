"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The analytic g2(0) is the weak-drive (two-excitation) solution, so
the criteria that compare it with the master equation hold it to what that
theory promises:

- blockade depth: the analytic zero means the numeric g2(0) vanishes as
  E -> 0.  At a root c02 = E^2 f(delta) + Lambda g(delta), so with Lambda
  scaled as E^2 the numeric value must fall as E^2 (log-log slope 2); its
  size at E = 0.005 gamma (~3.9e-4, about 15 <n>) is the finite-drive
  correction the theory leaves out;
- analytic/numeric agreement: the formula 2|c02|^2/|c01|^4 is leading order
  in the pair probability, so it is compared where |c02|^2/|c01|^2 <= 0.01;
- Kerr-scan structure: the dip is ~1e-3 omega_b wide in delta, so the scan
  runs at the exact CW root, not at its three-digit display value.

The supplementary regressions at the bottom pin the measured values; the
supplementary test after test_04 holds its comparison to the exact
weak-drive limit.
"""

import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from spinpb import (
    HilbertConfig,
    build_liouvillian,
    find_optimal_pairs,
    g2_analytic,
    g2_tau,
    g2_zero,
    mandel_q,
    steady_amplitudes,
    steady_state,
)
from spinpb.config import params_from_dict
from spinpb.lindblad import DensityMatrix
from spinpb.operators import embed_ops
from conftest import GAMMA, OMEGA_B, PAIRS_CCW, PAIRS_CW

CFG55 = HilbertConfig(5, 5)
CFG66 = HilbertConfig(6, 6)

# printed working point of the CW scan, Fig-2(a)-style
DELTA_CW = -0.684495
LAMBDA_CW = 2.46157e-6


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def g2_numeric(params, cfg=CFG55) -> float:
    return g2_zero(steady_state(build_liouvillian(params, cfg)), cfg)


def drive_exponent(params) -> float:
    """Log-log slope of numeric g2(0) against E, with Lambda scaled as E^2."""
    scales = (1.0, 0.5, 0.25)
    values = [g2_numeric(params.replace(E=s * params.E,
                                        Lambda=s * s * params.Lambda))
              for s in scales]
    return float(np.polyfit(np.log(scales), np.log(values), 1)[0])


@pytest.fixture(scope="module")
def found_pairs(working_params):
    """Root search per direction, once for the whole suite."""
    t0 = time.monotonic()
    pairs = {
        +0.5: find_optimal_pairs(working_params.replace(delta_F=0.5 * GAMMA)),
        -0.5: find_optimal_pairs(working_params.replace(delta_F=-0.5 * GAMMA)),
    }
    pairs["seconds"] = time.monotonic() - t0
    return pairs


@pytest.fixture(scope="module")
def scan_201(working_params):
    """201-point detuning scan of the CW configuration, both methods."""
    base = working_params.replace(Lambda=LAMBDA_CW * OMEGA_B)
    deltas = np.linspace(-1.0, 1.0, 201)
    ana, num = [], []
    for d in deltas:
        p = base.replace(delta=d * OMEGA_B)
        ana.append(g2_analytic(p))
        num.append(g2_numeric(p))
    return deltas, np.array(ana), np.array(num)


def test_01_optimal_pair_reproduction(found_pairs):
    published = {+0.5: PAIRS_CW, -0.5: PAIRS_CCW}
    details = []
    ok = True
    for sign, expected in published.items():
        got = found_pairs[sign]
        ok &= len(got) == 2
        for d_exp, l_exp in expected:
            best = min(got, key=lambda q: abs(q.delta_opt / OMEGA_B - d_exp))
            d_err = abs(best.delta_opt / OMEGA_B - d_exp) / abs(d_exp)
            l_err = abs(best.lambda_opt / OMEGA_B - l_exp) / l_exp
            ok &= d_err <= 0.01 and l_err <= 0.01
            details.append(f"({d_exp:+.6f}: {d_err:.2e}/{l_err:.2e})")
    assert report(
        "optimal-pair reproduction",
        ok,
        f"rel errors delta/lambda {' '.join(details)}; "
        f"search took {found_pairs['seconds']:.1f} s"), \
        "a published optimal pair was missed by more than 1%"


def test_02_blockade_depth(found_pairs, working_params):
    lines = []
    ana_ok = True
    num_ok = True
    for sign in (+0.5, -0.5):
        for pair in found_pairs[sign]:
            p = working_params.replace(delta_F=sign * GAMMA,
                                       delta=pair.delta_opt,
                                       Lambda=pair.lambda_opt)
            g_ana = g2_analytic(p)
            slope = drive_exponent(p)
            ana_ok &= g_ana < 1e-8
            num_ok &= abs(slope - 2.0) <= 0.05
            lines.append(f"({pair.delta_opt / OMEGA_B:+.3f}: "
                         f"ana {g_ana:.1e}, slope {slope:.4f})")
    ok = ana_ok and num_ok
    report("blockade depth", ok,
           "analytic < 1e-8 and numeric g2 ~ E^2 (slope 2 +/- 0.05, "
           "E/gamma in {0.005, 0.0025, 0.00125}) at each optimum: "
           + " ".join(lines))
    assert ana_ok, "analytic g2(0) at an exact root must be below 1e-8"
    assert num_ok, (
        "numeric g2(0) does not vanish as E^2 at an interference optimum: "
        "with Lambda scaled as E^2 a root of c02 stays a root, so a slope "
        "off 2 means the Lindblad and analytic models disagree on where "
        "c02 = 0 (a Lambda 0.6% off the root already gives a slope of 1.4)")


def test_03_nonreciprocity(working_params):
    p = working_params.replace(delta=DELTA_CW * OMEGA_B,
                               Lambda=LAMBDA_CW * OMEGA_B)
    forward = g2_numeric(p.replace(delta_F=+0.5 * GAMMA))
    backward = g2_numeric(p.replace(delta_F=-0.5 * GAMMA))
    ok = forward < 1e-3 and backward > 1.0
    assert report("nonreciprocity", ok,
                  f"co-rotating g2 = {forward:.3e} (< 1e-3), "
                  f"counter-rotating g2 = {backward:.3f} (> 1)")


def test_04_analytic_numeric_agreement(scan_201, working_params):
    deltas, ana, num = scan_201
    base = working_params.replace(Lambda=LAMBDA_CW * OMEGA_B)
    compared = 0
    violations = []
    for d, a, n in zip(deltas, ana, num):
        amps = steady_amplitudes(base.replace(delta=d * OMEGA_B))
        pair_ratio = abs(amps.c02) ** 2 / abs(amps.c01) ** 2
        if pair_ratio <= 0.01 and a > 1e-8 and n > 1e-8:
            compared += 1
            gap = abs(np.log10(n) - np.log10(a))
            if gap >= 0.15:
                violations.append((d, a, n, gap))
    coverage_ok = compared >= 0.85 * len(deltas)
    ok = not violations and coverage_ok
    worst = max(violations, key=lambda v: v[3]) if violations else None
    detail = (f"{compared}/{len(deltas)} points with |c02|^2/|c01|^2 <= 0.01 "
              "compared (need >= 85%); ")
    detail += "all within 0.15 decades" if not violations else (
        f"{len(violations)} violate; worst at delta = {worst[0]:+.2f} "
        f"omega_b (ana {worst[1]:.2e}, num {worst[2]:.2e}, "
        f"gap {worst[3]:.2f} decades)")
    report("analytic/numeric agreement", ok, detail)
    assert coverage_ok, (
        "fewer than 85% of the scan points lie in the leading-order domain "
        "|c02|^2/|c01|^2 <= 0.01 of the analytic formula")
    assert not violations, (
        "analytic and numeric g2(0) differ by 0.15 decades or more where the "
        "pair probability is small enough for the leading-order formula")


def test_supplementary_weak_drive_limit():
    """The Lindblad g2(0) tends to the analytic one as E^2, as E -> 0.

    Not a criterion: test_04's 0.15 decades, made exact.  At m_th =
    gamma_p = 0 the analytic g2 is the E -> 0 limit of the master equation
    with Lambda scaled as E^2, so the gap to it falls 4x per halving of E
    (measured order 1.998-2.000) and one Richardson step (4 g(E/2) - g(E))/3
    removes it (measured 7.7e-9 to 7.9e-7 relative).  The fig2a-d bases at
    four off-root detunings, all where the limit holds: |c02|^2/|c01|^2
    <= 1e-3 (measured 2.5e-5 to 1.4e-4).
    """
    for panel in ("fig2a", "fig2b", "fig2c", "fig2d"):
        raw = json.loads(resources.files("spinpb.presets")
                         .joinpath(f"{panel}.json").read_text())
        base = params_from_dict(raw["base"])
        assert base.m_th == 0 and base.gamma_p == 0
        for d in (-0.9, -0.3, 0.3, 0.9):
            p = base.replace(delta=d * base.omega_b)
            amps = steady_amplitudes(p)
            assert abs(amps.c02) ** 2 / abs(amps.c01) ** 2 <= 1e-3
            limit = g2_analytic(p)
            g = [g2_numeric(p.replace(E=s * p.E, Lambda=s * s * p.Lambda))
                 for s in (1.0, 0.5, 0.25)]
            gaps = [abs(v - limit) for v in g]
            for k in range(2):
                order = math.log2(gaps[k] / gaps[k + 1])
                assert abs(order - 2.0) <= 0.05, f"{panel} at {d}: order {order}"
            richardson = (4 * g[1] - g[0]) / 3
            assert abs(richardson - limit) <= 1e-5 * limit, f"{panel} at {d}"


def test_05_thermal_degradation(found_pairs, working_params):
    pair = found_pairs[+0.5][0]
    p = working_params.replace(delta=pair.delta_opt, Lambda=pair.lambda_opt)
    values = [g2_numeric(p.replace(m_th=m)) for m in (0.0, 1e-8, 1e-7)]
    ok = values[0] < values[1] < values[2]
    assert report(
        "thermal degradation", ok,
        "g2 strictly increases over m_th in {0, 1e-8, 1e-7}: "
        + " -> ".join(f"{v:.3e}" for v in values))


def test_06_dephasing_degradation(found_pairs, working_params):
    ok = True
    lines = []
    for sign in (+0.5, -0.5):
        for pair in found_pairs[sign]:
            p = working_params.replace(delta_F=sign * GAMMA,
                                       delta=pair.delta_opt,
                                       Lambda=pair.lambda_opt)
            values = [g2_numeric(p.replace(gamma_p=g * GAMMA))
                      for g in (0.0, 0.01, 0.1)]
            ok &= values[0] <= values[1] <= values[2]
            lines.append(f"({pair.delta_opt / OMEGA_B:+.3f}: "
                         + "->".join(f"{v:.1e}" for v in values) + ")")
    assert report("dephasing degradation", ok,
                  "g2 non-decreasing over gamma_p in {0, 0.01, 0.1} gamma "
                  "at each optimum: " + " ".join(lines))


def test_07_kerr_scan_structure(found_pairs, working_params):
    # scan at the CW root found for K = 0.1 gamma: the dip is ~1e-3 omega_b
    # wide in delta, narrower than the rounding of the display value -0.68
    pair = found_pairs[+0.5][0]
    p = working_params.replace(delta=pair.delta_opt,
                               Lambda=pair.lambda_opt,
                               delta_F=+0.5 * GAMMA)
    kerr = np.linspace(0.0, 0.6, 121)
    values = [g2_numeric(p.replace(K=k * GAMMA)) for k in kerr]
    k_min = float(kerr[int(np.argmin(values))])
    depth = float(min(values))
    ok = depth <= 1e-3 and abs(k_min - 0.1) <= 0.05
    detail = (f"minimum {depth:.3e} at K/gamma = {k_min:.3f} "
              f"(need <= 1e-3 within 0.1 +/- 0.05) at delta = "
              f"{pair.delta_opt / OMEGA_B:+.7f} omega_b")
    report("Kerr-scan structure", ok, detail)
    assert ok, ("no antibunching minimum <= 1e-3 near K/gamma = 0.1 at the "
                "CW interference root found for K = 0.1 gamma")


def test_08_g2_tau_asymptotics(found_pairs, working_params):
    pair = found_pairs[+0.5][0]
    p = working_params.replace(delta=pair.delta_opt, Lambda=pair.lambda_opt)
    taus = np.linspace(0.0, 6e-6, 61)
    trace = g2_tau(p, CFG55, taus)
    g2_0 = trace[0][1]
    rising = all(g > g2_0 for _t, g in trace[1:])
    settled = all(abs(g - 1.0) < 0.01 for t, g in trace if t >= 5e-6)
    near_unity_at_35 = min(abs(g - 1.0) for t, g in trace
                           if abs(t - 3.5e-6) < 0.06e-6)
    ok = rising and settled
    assert report(
        "g2(tau) asymptotics", ok,
        f"g2(0) = {g2_0:.2e}; g2(tau) > g2(0) for all tau > 0: {rising}; "
        f"|g2 - 1| < 0.01 for tau >= 5 us: {settled} "
        f"(|g2 - 1| = {near_unity_at_35:.1e} at 3.5 us)")


def test_09_observable_identities(found_pairs, working_params):
    rng = np.random.default_rng(2718)
    ops = embed_ops(CFG55)
    identity_ok = True
    for _ in range(100):
        raw = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
        rho = DensityMatrix((raw @ raw.conj().T) / np.trace(raw @ raw.conj().T).real)
        n = float(np.real(np.trace(ops.n_a @ rho.data)))
        gap = abs(mandel_q(rho, CFG55) - n * (g2_zero(rho, CFG55) - 1.0))
        identity_ok &= gap < 1e-10

    fock = np.zeros((25, 25), dtype=complex)
    fock[CFG55.basis_index(0, 1), CFG55.basis_index(0, 1)] = 1.0
    fock_ok = g2_zero(DensityMatrix(fock), CFG55) == 0.0

    nbar = 0.01
    thermal = np.zeros((25, 25), dtype=complex)
    weights = np.array([(nbar / (1 + nbar)) ** k for k in range(5)])
    weights /= weights.sum()
    for k, w in enumerate(weights):
        thermal[CFG55.basis_index(0, k), CFG55.basis_index(0, k)] = w
    thermal_g2 = g2_zero(DensityMatrix(thermal), CFG55)
    thermal_ok = abs(thermal_g2 - 2.0) <= 1e-3

    steady_ok = True
    for sign in (+0.5, -0.5):
        for pair in found_pairs[sign]:
            p = working_params.replace(delta_F=sign * GAMMA,
                                       delta=pair.delta_opt,
                                       Lambda=pair.lambda_opt)
            rho = steady_state(build_liouvillian(p, CFG55))
            rho.validate()   # Hermiticity 1e-10, trace 1e-10, min eig > -1e-8

    ok = identity_ok and fock_ok and thermal_ok and steady_ok
    assert report(
        "observable identities", ok,
        f"Q = <n>(g2 - 1) on 100 random states: {identity_ok}; single-photon "
        f"g2 = 0: {fock_ok}; thermal g2 = {thermal_g2:.4f} (2 +/- 1e-3); "
        f"steady-state Hermiticity/trace/positivity at 4 optima: {steady_ok}")


def test_10_truncation_convergence(found_pairs, working_params):
    points = []
    for sign in (+0.5, -0.5):
        for pair in found_pairs[sign]:
            points.append(working_params.replace(
                delta_F=sign * GAMMA, delta=pair.delta_opt,
                Lambda=pair.lambda_opt))
    # the reversed-direction bunching points of the nonreciprocity criterion
    base = working_params.replace(delta=DELTA_CW * OMEGA_B,
                                  Lambda=LAMBDA_CW * OMEGA_B)
    points.append(base.replace(delta_F=+0.5 * GAMMA))
    points.append(base.replace(delta_F=-0.5 * GAMMA))

    worst = 0.0
    for p in points:
        low = g2_numeric(p, CFG55)
        high = g2_numeric(p, CFG66)
        worst = max(worst, abs(high - low) / abs(low))
    ok = worst < 1e-4
    assert report("truncation convergence", ok,
                  f"worst relative g2 change (5,5)->(6,6) over "
                  f"{len(points)} suite points: {worst:.2e}")


# --- supplementary regressions -------------------------------------------
# These are not acceptance criteria.  They pin the measured values behind
# criteria 02, 04 and 07: the finite-drive g2(0) floor of ~3.9e-4 at
# E = 0.005 gamma, the Kerr dip at the six-digit published CW point, and the
# agreement outside |delta| < 0.15 omega_b, so any engine change that moves
# those numbers is caught.


def test_supplementary_kerr_dip_at_full_precision(working_params):
    """At the unrounded CW optimum the Kerr dip sits exactly at K = 0.1 gamma."""
    p = working_params.replace(delta=DELTA_CW * OMEGA_B,
                               Lambda=LAMBDA_CW * OMEGA_B,
                               delta_F=+0.5 * GAMMA)
    kerr = np.linspace(0.0, 0.6, 61)
    values = [g2_numeric(p.replace(K=k * GAMMA)) for k in kerr]
    k_min = float(kerr[int(np.argmin(values))])
    assert abs(k_min - 0.1) <= 0.01
    assert min(values) <= 1e-3


def test_supplementary_numeric_floor_regression(found_pairs, working_params):
    """The master-equation dip floor at E = 0.005 gamma is ~3.9e-4."""
    pair = found_pairs[+0.5][0]
    p = working_params.replace(delta=pair.delta_opt, Lambda=pair.lambda_opt)
    floor = g2_numeric(p)
    assert 2e-4 < floor < 6e-4


def test_supplementary_agreement_in_hierarchy_regime(scan_201):
    """Outside |delta| < 0.15 omega_b the two methods track within 0.15 decades."""
    deltas, ana, num = scan_201
    for d, a, n in zip(deltas, ana, num):
        if abs(d) >= 0.15 and a > 1e-8 and n > 1e-8:
            assert abs(np.log10(n) - np.log10(a)) < 0.15, f"at delta = {d}"

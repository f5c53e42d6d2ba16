"""Benchmark of the spinpb CLI: time, set-up, memory and checked outputs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload lindblad-scan --seed 1 --seconds 10 --trace 0

One client, closed loop: the benchmark calls ``spinpb.cli.main`` in-process,
one invocation after another, over the workload's generated spec and
parameter files (see ``workloads.py``).  BLAS is pinned to one thread, which
never exceeds ``nproc``, before numpy is imported.

A run writes its inputs and the program's CSVs under ``.perfbench_work/`` in
the checkout and removes them at the end.  It makes one untimed warm-up pass,
then timed passes until they add up to ``--seconds``, and checks every output
(see ``checks.py``).  With ``--trace 0`` it reports:

* ``wall_s``: median wall time of one pass over the workload's invocations;
* ``setup_s``: median wall time of a fresh ``python -m spinpb.cli validate``
  process on the workload's first spec (import and parse), at least five
  samples taken between passes;
* ``peak_rss_mb``: peak resident memory of this process, which runs only the
  workload, read after the warm-up pass.

With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of ``spans.py`` instead.  The line before the final JSON
line records the machine, library versions, thread pinning, point counts,
truncations and the check results.  ``failed / attempted`` in the final line
is the share of outputs that failed a check; misses of the oracles that
``checks.REPORTED_ONLY`` names are left out of it and reported on their own,
in the record's ``failed_ratio``, on stderr and as a per-layer metric.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# A fixed string-hash seed makes allocation order, and with it the peak
# resident memory, repeat from run to run; it needs a fresh interpreter.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
TIMEOUT_S = 120


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment() -> dict:
    import ctypes
    import platform

    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    reported = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        reported = get()

    def blas_version(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("version")

    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_openblas": blas_version(np),
            "scipy_openblas": blas_version(scipy),
            "blas_threads_pinned": BLAS_THREADS,
            "blas_threads_reported": reported}


class SetupTimer:
    """Wall time of fresh ``python -m spinpb.cli validate`` processes.

    Samples are taken between passes rather than back to back, so that the
    median spans the whole run instead of one moment of machine load.
    """

    def __init__(self, spec: Path):
        self.cmd = [sys.executable, "-m", "spinpb.cli", "validate",
                    "--spec", str(spec)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []
        self.failures = 0

    def sample(self) -> None:
        t0 = perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
        self.times.append(perf_counter() - t0)
        if proc.returncode != 0 or "configuration OK" not in proc.stdout:
            self.failures += 1


def _invoke(main, argv: list[str], notes: list) -> int | None:
    """Run one CLI invocation with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except Exception:
        notes.append(f"{argv[0]} raised: {traceback.format_exc(limit=3)}")
        return None
    if code != 0:
        notes.append(f"{argv[0]} exit {code}: {err.getvalue().strip()[-300:]}")
    return code


def run_pass(inputs, notes, tracer=None):
    import spinpb.cli
    from spans import ROOT_SPAN

    for inv in inputs.invocations:
        inv.csv.unlink(missing_ok=True)
    if tracer is None:
        t0 = perf_counter()
        codes = [_invoke(spinpb.cli.main, inv.argv, notes)
                 for inv in inputs.invocations]
        elapsed = perf_counter() - t0
    else:
        with tracer.installed():
            main = tracer.wrap(ROOT_SPAN, spinpb.cli.main)
            t0 = perf_counter()
            codes = [_invoke(main, inv.argv, notes) for inv in inputs.invocations]
            elapsed = perf_counter() - t0
    outputs = [inv.csv.read_bytes() if inv.csv.exists() else None
               for inv in inputs.invocations]
    return elapsed, codes, outputs


def _pass_counts(inputs, outputs) -> dict:
    """Rows, CSV bytes and manifest failure records written by one pass."""
    from spinpb.sweep import manifest_path_for

    points = csv_bytes = failures = 0
    for inv, data in zip(inputs.invocations, outputs):
        if data is None:
            continue
        points += data.count(b"\n") - 1
        csv_bytes += len(data)
        manifest = manifest_path_for(inv.csv)
        if manifest.exists():
            failures += len(json.loads(manifest.read_text(encoding="utf-8"))["failures"])
    return {"points": points, "csv_bytes": csv_bytes, "failures": failures}


def _layer_metrics(summary: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced pass as {name: (value, unit)}."""
    from spans import DIMS, ROOT_SPAN

    def get(key, field="busy_s"):
        return summary[key][field] if key in summary else 0

    m = {}
    m["analytic.steady_amplitudes.calls"] = (get("analytic.steady_amplitudes", "calls"), "count")
    m["analytic.steady_amplitudes.busy_s"] = (get("analytic.steady_amplitudes"), "s")
    m["analytic.find_optimal_pairs.busy_s"] = (get("analytic.find_optimal_pairs"), "s")
    m["analytic.find_optimal_pairs.self_s"] = (get("analytic.find_optimal_pairs", "self_s"), "s")
    amp_calls = get(("analytic.steady_amplitudes", "in",
                     "analytic.find_optimal_pairs"), "calls")
    roots = get("analytic.find_optimal_pairs", "count")
    m["analytic.find_optimal_pairs.roots_per_amplitude_call"] = (
        roots / amp_calls if amp_calls else 0.0, "ratio")
    m["analytic.g2_analytic.busy_s"] = (get("analytic.g2_analytic"), "s")
    for layer in ("lindblad.build_liouvillian", "lindblad.steady_state"):
        for dim in DIMS:
            calls = get((layer, dim), "calls")
            busy = get((layer, dim))
            m[f"{layer}.calls.dim{dim}"] = (calls, "count")
            m[f"{layer}.busy_s.dim{dim}"] = (busy, "s")
            m[f"{layer}.ms_per_call.dim{dim}"] = (1e3 * busy / calls if calls else 0.0, "ms")
    builds = [(dim, get(("lindblad.build_liouvillian", dim), "calls")) for dim in DIMS]
    solves = [(dim, get(("lindblad.steady_state", dim), "calls")) for dim in DIMS]
    # dense complex superoperator of side dim^2; complex LU costs 8/3 n^3 flops
    m["lindblad.build_liouvillian.bytes_computed"] = (
        sum(16 * dim**4 * calls for dim, calls in builds), "B")
    m["lindblad.steady_state.lu_flops_computed"] = (
        sum(8 * dim**6 * calls for dim, calls in solves) / 3, "flop")
    m["lindblad.g2_zero.busy_s"] = (get("lindblad.g2_zero"), "s")
    m["lindblad.mandel_q.busy_s"] = (get("lindblad.mandel_q"), "s")
    m["lindblad.g2_tau.calls"] = (get("lindblad.g2_tau", "calls"), "count")
    m["lindblad.g2_tau.delays"] = (get("lindblad.g2_tau", "label_sum"), "count")
    m["lindblad.g2_tau.busy_s"] = (get("lindblad.g2_tau"), "s")
    for name in ("model.build_hamiltonian", "operators.embed_ops"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.busy_s"] = (get(name), "s")
    config = sum(get(key) for key in summary
                 if isinstance(key, str) and key.startswith("config."))
    m["config.parse.busy_s"] = (config, "s")
    m["sweep.run_sweep.self_s"] = (get("sweep.run_sweep", "self_s"), "s")
    m["sweep.run_optimal.busy_s"] = (get("sweep.run_optimal"), "s")
    m["sweep.run_g2tau.busy_s"] = (get("sweep.run_g2tau"), "s")
    m["sweep.points"] = (counts["points"], "count")
    m["sweep.failures"] = (counts["failures"], "count")
    m["sweep.csv_bytes"] = (counts["csv_bytes"], "B")
    main_busy = get(ROOT_SPAN)
    m["trace.untraced_share"] = (
        get(ROOT_SPAN, "self_s") / main_busy if main_busy else 0.0, "ratio")
    return m


def load_program() -> None:
    """Put the checkout's ``src`` first on the path; exit if it is missing."""
    if not (SRC / "spinpb" / "cli.py").is_file():
        _fail(f"no spinpb source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import spinpb
    if Path(spinpb.__file__).resolve().parent != SRC / "spinpb":
        _fail(f"imported spinpb from {spinpb.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    load_program()
    import resource

    import checks
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        inputs = workloads.build(args.workload, args.seed, ROOT, work)
        notes: list[str] = []
        setup = SetupTimer(inputs.setup_spec)
        if not args.trace:
            setup.sample()
        warm = run_pass(inputs, notes)
        # read after exactly one pass: later passes only add allocator drift
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        untraced, traced, reruns = [], [], []
        summaries = []
        while (sum(untraced) + sum(traced) < args.seconds or not untraced
               or (args.trace and not traced)):
            tracer = Tracer() if args.trace and len(traced) < len(untraced) else None
            elapsed, codes, outputs = run_pass(inputs, notes, tracer)
            (traced if tracer else untraced).append(elapsed)
            reruns.append((codes, outputs))
            if tracer:
                summaries.append(tracer.summary())
            if not args.trace:
                setup.sample()
        while not args.trace and len(setup.times) < SETUP_SAMPLES:
            setup.sample()

        by_kind: dict[str, checks.CheckResult] = {}
        total = checks.CheckResult(attempted=len(setup.times),
                                   failed=setup.failures)
        _, warm_codes, warm_outputs = warm
        for k, inv in enumerate(inputs.invocations):
            code = warm_codes[k]
            if any(codes[k] != code for codes, _ in reruns):
                code = None
            result = checks.check_invocation(
                inv, code, warm_outputs[k], [outputs[k] for _, outputs in reruns])
            by_kind.setdefault(inv.kind, checks.CheckResult()).add(result)
            total.add(result)
        counts = _pass_counts(inputs, warm_outputs)

        if args.trace:
            per_pass = [_layer_metrics(s, counts) for s in summaries]
            metrics = {}
            for name, (_value, unit) in per_pass[0].items():
                values = [p[name][0] for p in per_pass]
                metrics[name] = {"value": statistics.median_low(values), "unit": unit}
            tau = by_kind.get("tau")
            metrics["lindblad.g2_tau.max_rel_err_vs_expm"] = {
                "value": tau.max_rel_err if tau else 0.0, "unit": "ratio"}
            metrics["lindblad.g2_tau.delays_missing_expm"] = {
                "value": tau.reported_missed if tau else 0, "unit": "count"}
            metrics["trace.overhead_ratio"] = {
                "value": statistics.median(traced) / statistics.median(untraced),
                "unit": "ratio"}
        else:
            metrics = {
                "wall_s": {"value": statistics.median(untraced), "unit": "s"},
                "setup_s": {"value": statistics.median(setup.times), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }

        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": _environment(),
            "invocations": inputs.summary(),
            "passes": {"warm_up_s": warm[0], "untraced_s": untraced,
                       "traced_s": traced},
            "setup_samples_s": setup.times,
            # every output that failed a check, REPORTED_ONLY misses included
            "failed_ratio": {"value": (total.failed + total.reported_missed)
                             / total.attempted, "unit": "ratio"},
            "reported_only_missed": total.reported_missed,
            "checks": {kind: r.as_dict() for kind, r in by_kind.items()},
            "pass_counts": counts,
            "notes": notes[:20],
        }
        for kind, r in by_kind.items():
            if r.reported_missed:
                print(f"perfbench: {r.reported_missed} of {r.oracle_checked} "
                      f"{kind} outputs miss their oracle by more than "
                      f"{checks.TOLERANCE:g} (worst {r.max_rel_err:.3g}); "
                      "reported, not counted as failed", file=sys.stderr)
        print(json.dumps({"record": record}))
        print(json.dumps({"correct": total.failed == 0,
                          "attempted": total.attempted,
                          "failed": total.failed,
                          "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass                  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-check of the benchmark: metric contract and oracle sensitivity.

Run from the root of a source checkout:

    python3 perfbench/selfcheck.py

1. Runs ``run.py`` for one second on every workload, with tracing off and on,
   and verifies that the last line holds exactly ``correct``, ``attempted``,
   ``failed`` and ``metrics``, and that the metrics are exactly the ones
   ``BENCHMARK.json`` names, each with its unit and a finite value.
2. Runs one pass of every workload in-process, takes in each CSV a row that
   passes its checks, and verifies that the checks flag it when its value is
   moved by 1e-3 relative, when it is NaN and when a rerun writes different
   bytes for it.  For the kinds in ``checks.REPORTED_ONLY`` the moved value
   must show as an oracle miss.

Outputs that fail their checks are reported, not treated as a self-check
failure: they are findings about the program.  Exit code 0 means the
benchmark itself behaves as specified.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy is imported

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _contract_errors(workload: str, trace: int) -> tuple[list[str], dict | None]:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-400:]}"], None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    result["reports"] = [line for line in proc.stderr.splitlines()
                         if line.startswith("perfbench: ")]
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and 0 <= result["failed"] <= result["attempted"]):
        errors.append(f"attempted/failed {result['attempted']}/{result['failed']}")
    expected = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        metric = metrics.get(name, {})
        value = metric.get("value")
        if metric.get("unit") != unit:
            errors.append(f"{name}: unit {metric.get('unit')!r}, expected {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            errors.append(f"{name}: value {value!r}")
    return errors, result


def _perturbed(data: bytes, row: int, column: int, transform) -> bytes:
    lines = data.decode("utf-8").split("\n")
    fields = lines[row + 1].split(",")
    fields[column] = transform(fields[column])
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines).encode("utf-8")


def _oracle_errors(workload: str) -> list[str]:
    import shutil

    import checks
    import workloads

    work = run.ROOT / ".perfbench_work" / f"selfcheck-{workload}"
    errors = []
    try:
        inputs = workloads.build(workload, 1, run.ROOT, work)
        _, codes, outputs = run.run_pass(inputs, [])
        for inv, code, data in zip(inputs.invocations, codes, outputs):
            base = checks.check_invocation(inv, code, data, [data])
            rows = checks.parse_csv(data) or []
            examined = inv.oracle_rows or [
                i for i, r in enumerate(rows)
                if inv.kind != "large" or abs(r[0]) >= workloads.UNCONVERGED_WINDOW]
            passing = [i for i in examined
                       if i not in base.failed_rows | base.missed_rows]
            if not passing:
                errors.append(f"{inv.csv.name}: no passing row to perturb")
                continue
            row = passing[-1]
            # the pair search is checked through the returned Lambda
            column = 2 if inv.kind == "optimal" else -1
            moved = _perturbed(data, row, column,
                               lambda v: repr(float(v) * (1 + 1e-3)))
            nan = _perturbed(data, row, column, lambda v: "nan")
            cases = {"moved by 1e-3": (moved, [moved]), "NaN": (nan, [nan]),
                     "rerun differs": (data, [moved])}
            for label, (reference, reruns) in cases.items():
                verdict = checks.check_invocation(inv, code, reference, reruns)
                flagged = verdict.failed_rows
                if label == "moved by 1e-3" and inv.kind in checks.REPORTED_ONLY:
                    flagged = verdict.missed_rows
                if row not in flagged:
                    errors.append(f"{inv.csv.name}: {label} row {row} not flagged")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass                  # a run still uses it
    return errors


def main() -> int:
    run.load_program()
    problems = 0
    for workload in (w["name"] for w in BENCH["workloads"]):
        for trace in (0, 1):
            errors, result = _contract_errors(workload, trace)
            status = "ok" if not errors else "FAIL"
            findings = "" if result is None else \
                f"; outputs failing checks {result['failed']}/{result['attempted']}"
            print(f"contract {workload} trace={trace}: {status}{findings}")
            for line in [] if result is None else result["reports"]:
                print(f"    {line}")
            for error in errors:
                print(f"    {error}")
            problems += bool(errors)
        errors = _oracle_errors(workload)
        print(f"oracles  {workload}: {'ok' if not errors else 'FAIL'}")
        for error in errors:
            print(f"    {error}")
        problems += bool(errors)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

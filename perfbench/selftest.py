"""Self-test of the benchmark: every workload at one replicate.

    python3 perfbench/selftest.py

For each workload it runs `run.py --seconds 1` (one replicate) with tracing
off and on, and asserts that:

- the last line is the result object, and `correct` and the exit code agree
  with the checks the run reports; every check but accuracy passes (one
  replicate is a single draw, so an accuracy miss is printed as a note);
- every metric named in BENCHMARK.json is printed, with its declared unit;
- each span's self time is no larger than its inclusive time;
- child spans nest inside their parents;
- `trace.coverage` is at most 1.

It also runs the benchmark in a directory holding only BENCHMARK.json and the
benchmark's files, where it must exit non-zero without printing a result.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".perfbench_out"
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )


def result_line(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def check_run(workload: str, trace: int, declared: list[dict]) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    result = result_line(proc.stdout)
    if result is None:
        return [f"{where}: exit code {proc.returncode}, last line is not a JSON object\n{proc.stderr}"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    report = json.loads((OUT / workload / f"report_trace{trace}.json").read_text())
    # One replicate is a single draw: an accuracy miss there is reported, not
    # treated as a fault of the benchmark. Every other check must pass.
    for err in report["errors"]:
        if err.startswith("accuracy:"):
            print(f"{where}: note: {err}", flush=True)
        else:
            errors.append(f"{where}: {err}")
    if result.get("correct") is not (not report["errors"]):
        errors.append(f"{where}: correct is {result.get('correct')!r} with errors {report['errors']}")
    if proc.returncode != (1 if report["errors"] else 0):
        errors.append(f"{where}: exit code {proc.returncode} with errors {report['errors']}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1 and isinstance(result.get("failed"), int)):
        errors.append(f"{where}: attempted/failed are not whole numbers with attempted >= 1")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        errors.append(f"{where}: metrics missing {sorted(set(want) - set(metrics))}, extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        m = metrics.get(name)
        if m is not None and (m.get("unit") != unit or not isinstance(m.get("value"), (int, float))):
            errors.append(f"{where}: metric {name} is {m}, declared unit {unit}")

    if trace:
        for row in report["breakdown"]:
            if row["self_s"] > row["incl_s"]:
                errors.append(f"{where}: span {row['span']} under {row['parent']}: self > inclusive")
        if report["raw_spans_checked"] == 0 or report["nesting_errors"]:
            errors.append(f"{where}: {report['nesting_errors']} nesting errors in {report['raw_spans_checked']} spans")
        coverage = metrics.get("trace.coverage", {}).get("value", 2.0)
        if not 0.0 < coverage <= 1.0:
            errors.append(f"{where}: trace.coverage {coverage} outside (0, 1]")
    return errors


def check_bare_directory() -> list[str]:
    """Without the rareebm sources the benchmark must fail and print no result."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, "contamination_ebm", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result_line(proc.stdout) is not None:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            found = check_run(workload, trace, declared)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors.extend(found)
    found = check_bare_directory()
    print(f"bare directory: {'ok' if not found else 'FAILED'}", flush=True)
    errors.extend(found)
    for err in errors:
        print(err, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

"""Negative controls for the benchmark's own checks.

    python3 perfbench/selfcheck.py

1. The cold-start guard: finds the package's memo tables without a list,
   raises when one is left populated, and still finds a table after the
   tracer has wrapped it.
2. The tampered expected value: a short ``run.py --tamper`` run of each
   workload named on the command line (default: gw_queries) must report
   ``correct: false`` and at least one failed operation.

Exits 0 when every control behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402


def check_cold_guard() -> list[str]:
    import p1qcurve.cli  # noqa: F401
    from p1qcurve import qcurve
    from p1qcurve.partitions import partitions

    problems = []
    memos = tracing.MemoTables()
    names = set(tracing.find_memos())
    for name in ("p1qcurve.partitions.partitions", "p1qcurve.wedge.connected_coefficient",
                 "p1qcurve.toprec.toprec_wgn", "p1qcurve.wavefunction._degree_block"):
        if name not in names:
            problems.append(f"memo table {name} not found")
    memos.clear()
    memos.assert_cold()
    partitions(5)
    try:
        memos.assert_cold()
        problems.append("guard passed with partitions() populated")
    except tracing.ColdStartError as exc:
        print(f"ok: guard refused a warm table: {exc}")
    memos.clear()
    memos.assert_cold()

    tracer = tracing.Tracer()
    original = qcurve.x_partition
    tracer.install(original, tracer.span("qcurve.x_partition", original))
    try:
        qcurve.x_partition(3)
        try:
            memos.assert_cold()
            problems.append("guard missed a wrapped table")
        except tracing.ColdStartError:
            print("ok: guard sees a table behind a tracer wrapper")
        memos.clear()
        memos.assert_cold()
    finally:
        tracer.uninstall()
    return problems


def check_tamper(workload: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--tamper"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["correct"] or result["failed"] < 1 or proc.returncode == 0:
        return [f"{workload}: tampered run reported {result} (exit {proc.returncode})"]
    print(f"ok: {workload} with a tampered expected value: failed {result['failed']} of "
          f"{result['attempted']}, exit {proc.returncode}")
    return []


def main(argv: list[str]) -> int:
    problems = check_cold_guard()
    for workload in argv or ["gw_queries"]:
        problems += check_tamper(workload)
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

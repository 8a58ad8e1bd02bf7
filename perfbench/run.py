"""The p1qcurve benchmark: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads: xd_tower, qce_chain,
gw_queries, residue_forms (``--workload all`` runs each in turn).  The run
repeats rounds until the next round would end after ``--seconds``; at least
one runs.  A round times three imports of the package in fresh interpreters
(``setup_s``), then runs one cold pass of the workload in another.  Every
output is checked.

With ``--trace 0`` it prints the end-to-end metrics, the operation latency
percentiles and ``fail_ratio``; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics plus
``trace.overhead_s``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--tamper``
corrupts one reference value per pass (negative control: the run must then
report failures).  A result file with the environment record is written
under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("xd_tower", "qce_chain", "gw_queries", "residue_forms")
SETUP_PROBES = 3  # import timings before every pass
WORKER_TIMEOUT_S = 170

SETUP_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import p1qcurve, p1qcurve.cli\n"
    "print(time.perf_counter() - t)\n"
)


class BenchError(RuntimeError):
    pass


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = "not installed"
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "sympy": sympy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "loadavg_start": _loadavg(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # write nothing; every import compiles the sources
    env.pop("P1QC_CACHE_DIR", None)
    return env


def _run(cmd: list[str]) -> str:
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:]} timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{cmd[1:]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_time() -> float:
    """Import time of ``p1qcurve`` and ``p1qcurve.cli`` in a fresh interpreter."""
    return float(_run([sys.executable, "-c", SETUP_PROBE]))


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               tamper: bool) -> tuple[list[dict], list[float]]:
    """Until the next round would end after ``seconds`` (at least one
    round): time SETUP_PROBES imports, then run one pass.  A traced run
    times no imports and alternates untraced and traced passes, starting
    untraced, with at least one of each."""
    passes: list[dict] = []
    setup: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        if not trace:
            setup += [setup_time() for _ in range(SETUP_PROBES)]
        index = len(passes)
        traced = trace and index % 2 == 1
        cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(index),
               "1" if traced else "0"] + (["--tamper"] if tamper else [])
        record = json.loads(_run(cmd))
        record["traced"] = traced
        record["round_s"] = time.perf_counter() - start
        passes.append(record)
        longest = max(p["round_s"] for p in passes)
        complete = not trace or len(passes) >= 2
        if complete and time.perf_counter() + longest > deadline:
            return passes, setup


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain)
    )
    return metrics


def run_workload(args, workload: str, units: dict) -> dict:
    """Run one workload; ``units`` maps each metric it must report, as
    declared in BENCHMARK.json, to its unit."""
    env = environment(args.seed)
    passes, setup = run_passes(workload, args.seed, args.seconds, bool(args.trace), args.tamper)
    env["loadavg_end"] = _loadavg()
    ops = [op for p in passes for op in p["ops"]]
    failures = [op for op in ops if op[2] is not None]
    values = per_layer(passes) if args.trace else end_to_end(passes, setup)
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }

    print(f"environment {json.dumps(env)}")
    print(f"workload {workload}: {len(passes)} passes ({sum(p['traced'] for p in passes)} traced), "
          f"{len(ops)} operations, {len(failures)} failed, "
          f"fail_ratio {len(failures) / len(ops):.6f}")
    for label, _, error in failures[:10]:
        print(f"  FAILED {label}: {error}")
    latencies_ms = [op[1] * 1e3 for op in ops]
    beyond = max(0, len(ops) - 1 - int(0.95 * (len(ops) - 1)))
    print(f"operation latency p50 {statistics.median(latencies_ms):.3f} ms, "
          f"p95 {quantile(latencies_ms, 95):.3f} ms ({len(ops)} samples, {beyond} above p95)")
    notes = {
        "setup_s": f"median of {len(setup)} imports",
        "wall_s": f"median of {len(passes)} passes",
        "cpu_s": f"median of {len(passes)} passes",
        "peak_rss_mb": f"median of {len(passes)} passes",
    }
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6f} {metric['unit']:<6} {notes.get(name, '')}")
    if args.trace:
        for p in passes:
            if p["traced"]:
                print(f"  trace file {p['trace_file']}")
        last = [p for p in passes if p["traced"]][-1]
        print(f"memo_tables {json.dumps(last['memo_tables'], sort_keys=True)}")

    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "environment": env, "setup_s": setup,
              "passes": [{k: v for k, v in p.items() if k != "memo_tables"} for p in passes],
              "result": result}
    name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one expected value per pass (negative control)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "p1qcurve" / "__init__.py").is_file():
        print(f"error: no p1qcurve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for needed in (HERE / "expected.json", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed} is missing", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(args, w, units) for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    combined = results[0] if len(results) == 1 else {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{w}.{k}": v for w, r in zip(workloads, results)
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

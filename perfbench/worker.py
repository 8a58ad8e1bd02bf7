"""Run one pass of a workload in this (fresh) interpreter and print its record.

    python3 perfbench/worker.py WORKLOAD SEED PASS TRACE [--tamper]

``run.py`` starts one worker per pass with ``PYTHONPATH`` set to the
checkout's ``src``.  The record is one JSON object on the last line of
stdout.  With TRACE = 1 the package's public functions are wrapped in spans
and the per-layer metrics are computed from them; the spans, counters and a
``cache_info()`` snapshot of every memo table go to a trace file.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"

# (module, function) pairs, spanned as "module.function"; every reference
# to the function in the package's namespaces is wrapped, names imported
# across modules included
SPANS = (
    ("qcurve", "x_partition"),
    ("qcurve", "y_polynomial"),
    ("qcurve", "verify_xd_recursion"),
    ("qcurve", "x_laguerre"),
    ("qcurve", "xd_pole_report"),
    ("wedge", "connected_coefficient"),
    ("wedge", "stationary_invariant"),
    ("toprec", "toprec_wgn"),
    ("toprec", "primitive_fgn"),
    ("toprec", "fgn_x_expansion"),
    ("toprec", "ns_expansion_check"),
    ("wavefunction", "qce_verification"),
    ("wavefunction", "conjugation_check"),
    ("wavefunction", "build_degree_graded_x"),
    ("wavefunction", "semiclassical_check"),
    ("wavefunction", "theta_resummation_check"),
    ("wavefunction", "toda_specialization_check"),
    ("cli", "main"),
)

# hot kernel entry points: call counts and outermost-call time, no spans
COUNTERS = {
    "exactcore.poly_shift": ("Polynomial", "shift"),
    "exactcore.ratfunc_new": ("RationalFunction", "__init__"),
    "exactcore.partial_fractions": (None, "partial_fractions"),
    "exactcore.multiseries_mul": ("MultiSeries", "__mul__"),
    "exactcore.multiseries_log": (None, "multiseries_log"),
    "exactcore.series_inverse": ("TruncatedSeries", "inverse"),
    "exactcore.formal_laurent_mul": ("FormalLaurent", "__mul__"),
}

QCURVE_FUNCTIONS = ("x_partition", "y_polynomial", "verify_xd_recursion", "x_laguerre",
                    "xd_pole_report")
LINKS = {
    "qcurve.verify_xd_recursion": "recursion",
    "wavefunction.conjugation_check": "conjugation",
    "wavefunction.build_degree_graded_x": "degree_graded",
}


def install_tracing(cache_hits: list) -> tracing.Tracer:
    """Wrap the package's public functions and kernels; return the tracer."""
    from p1qcurve import cli, exactcore

    tracer = tracing.Tracer()
    for module, attr in SPANS:
        original = getattr(importlib.import_module(f"p1qcurve.{module}"), attr)
        tracer.install(original, tracer.span(f"{module}.{attr}", original))
    for name, (owner, attr) in COUNTERS.items():
        original = getattr(getattr(exactcore, owner) if owner else exactcore, attr)
        tracer.install(original, tracer.counter(name, original))

    load = cli._cache_load

    def cache_load(path):
        result = load(path)
        cache_hits.append(tracer.op if result is not None else None)
        return result

    tracer.install(load, cache_load)
    return tracer


def layer_metrics(tracer, memo_tables: dict, records: list, cache_hits: list, xd_top: int) -> dict:
    """The per-layer metrics of one traced pass (see README.md)."""
    own = tracer.self_times()
    spans = tracer.spans
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, *_), t in zip(spans, own):
        self_s[name] += t
        calls[name] += 1

    def memo(name: str) -> dict:
        return memo_tables.get(f"p1qcurve.{name}", {"total_hits": 0, "total_misses": 0})

    m: dict[str, float] = {}
    for name, (count, seconds) in sorted(tracer.counters.items()):
        m[f"{name}.calls"] = count
        m[f"{name}.s"] = seconds
    m["exactcore.max_coeff_bits"] = tracer.max_bits
    m["partitions.memo_entries"] = sum(
        t["peak_entries"] for name, t in memo_tables.items()
        if name.startswith("p1qcurve.partitions.")
    )
    for fn in QCURVE_FUNCTIONS:
        m[f"qcurve.{fn}.s"] = self_s[f"qcurve.{fn}"]
    for fn in ("x_partition", "y_polynomial"):
        m[f"qcurve.{fn}.top.s"] = sum(
            t for (name, args, *_), t in zip(spans, own)
            if name == f"qcurve.{fn}" and args == (xd_top,)
        )
    cc = memo("wedge.connected_coefficient")
    m["wedge.connected_coefficient.calls"] = calls["wedge.connected_coefficient"]
    m["wedge.connected_coefficient.misses"] = cc["total_misses"]
    m["wedge.connected_coefficient.s"] = self_s["wedge.connected_coefficient"]
    e0 = memo("wedge.e0_eigenvalue")
    looked_up = e0["total_hits"] + e0["total_misses"]
    m["wedge.e0_eigenvalue.hit_ratio"] = e0["total_hits"] / looked_up if looked_up else 0.0
    for g, n in ((0, 3), (1, 1), (0, 4), (1, 2), (2, 1)):
        m[f"toprec.toprec_wgn.{g}_{n}.s"] = sum(
            t for (name, args, *_), t in zip(spans, own)
            if name == "toprec.toprec_wgn" and args[:2] == (g, n)
        )
    for fn in ("primitive_fgn", "fgn_x_expansion", "ns_expansion_check"):
        m[f"toprec.{fn}.s"] = self_s[f"toprec.{fn}"]
    qce = {i for i, span in enumerate(spans) if span[0] == "wavefunction.qce_verification"}
    link_s = dict.fromkeys(LINKS.values(), 0.0)
    graded_self = 0.0
    for (name, _, start, end, parent, _), t in zip(spans, own):
        if parent in qce and name in LINKS:
            link_s[LINKS[name]] += end - start
            if LINKS[name] == "degree_graded":
                graded_self += t
    for link, seconds in link_s.items():
        m[f"wavefunction.link.{link}.s"] = seconds
    m["wavefunction.degree_graded.self.s"] = graded_self
    m["wavefunction.semiclassical.s"] = sum(
        end - start for name, _, start, end, _, _ in spans
        if name == "wavefunction.semiclassical_check"
    )
    replayed = {op for op in cache_hits if op is not None}
    gw = [(i, seconds) for i, (label, seconds, _) in enumerate(records) if label.startswith("gw ")]
    replay_ms = [s * 1e3 for i, s in gw if i in replayed]
    compute_ms = [s * 1e3 for i, s in gw if i not in replayed]
    m["cli.cache.hit_ratio"] = len(replayed) / len(cache_hits) if cache_hits else 0.0
    m["cli.replay_p50_ms"] = statistics.median(replay_ms) if replay_ms else 0.0
    m["cli.compute_p50_ms"] = statistics.median(compute_ms) if compute_ms else 0.0
    m["cli.self.s"] = self_s["cli.main"]
    return m


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_pass(ops, memos, tracer) -> tuple[list, float, float]:
    """Run the operations closed-loop; return per-operation records
    ``[label, seconds, error]``, the wall time and the CPU time."""
    records = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for index, op in enumerate(ops):
        if op.cold:
            memos.clear()
            memos.assert_cold()
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            result = op.run()
            seconds = time.perf_counter() - start
            error = op.check(result)
        except Exception as exc:  # an operation that raises has failed
            seconds = time.perf_counter() - start
            error = f"{type(exc).__name__}: {exc}"
        records.append([op.label, seconds, error])
    wall = time.perf_counter() - t0
    return records, wall, _cpu_seconds() - cpu0


def tamper_first_expected(ops, expected: dict, lookup) -> str:
    """Negative control: corrupt the reference value of the first checked
    operation, which must then fail."""
    op = next(op for op in ops if op.expect)
    lookup(expected, op.expect[:-1])[op.expect[-1]] = "tampered"
    return op.label


def main(argv: list[str]) -> int:
    workload, seed, pass_index, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    import p1qcurve

    package_dir = Path(p1qcurve.__file__).resolve().parent
    if package_dir != (ROOT / "src" / "p1qcurve").resolve():
        print(f"error: imported p1qcurve from {package_dir}, not from this checkout",
              file=sys.stderr)
        return 2

    import workloads

    expected = json.loads((HERE / "expected.json").read_text())
    ops = workloads.build_pass(workload, seed, pass_index, expected)
    tampered = (tamper_first_expected(ops, expected, workloads.lookup)
                if "--tamper" in argv else None)
    memos = tracing.MemoTables()
    cache_hits: list = []
    tracer = install_tracing(cache_hits) if trace else None
    OUT.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="p1qc-cache-", dir=OUT)
    os.environ["P1QC_CACHE_DIR"] = cache_dir
    try:
        records, wall, cpu = run_pass(ops, memos, tracer)
    finally:
        shutil.rmtree(cache_dir)
    memo_tables = memos.finish()
    record = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": records,
        "tampered": tampered,
        "layers": None,
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = layer_metrics(tracer, memo_tables, records, cache_hits,
                                         workloads.XD_TOP)
        trace_file = OUT / f"trace-{workload}-seed{seed}-pass{pass_index}.json"
        t0 = min((s[2] for s in tracer.spans), default=0.0)
        trace_file.write_text(json.dumps({
            "workload": workload, "seed": seed, "pass": pass_index,
            "spans": [[name, repr(args), s - t0, e - t0, parent, op]
                      for name, args, s, e, parent, op in tracer.spans],
            "counters": tracer.counters,
            "memo_tables": memo_tables,
        }))
        record["trace_file"] = str(trace_file.relative_to(ROOT))
        record["memo_tables"] = memo_tables
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line front end: every computation and verification as a
reproducible, scriptable command.

Design rules, enforced throughout:

* stdout carries exactly one canonical JSON document (or CSV / pretty text
  when requested) that is byte-identical across identical invocations;
  wall-clock time goes to stderr, never into the payload;
* every exact number serializes as a ``"p/q"`` string, never a float;
* exit code 0 = pass or value produced, 1 = a verification returned false or
  a budget was exceeded, 2 = usage error (unknown flags, bad suite names,
  empty ranges);
* a global ``--budget`` flag caps every truncation order (``wgn``, ``fgn``,
  ``psi-check``, ``toda-check`` and the suites of ``verify``) and the depths
  of ``verify``, ``psi-check`` and ``toda-check``; ``gw`` exits 1 when a
  query's required order exceeds it.  ``xd --d`` and ``table --range`` are
  never capped: their ``budget_used`` is null.  Each command reports the
  budget it actually used in its ``parameters`` echo;
* a subcommand imports only what it computes: at the top this module imports
  no other module of the package, nor ``fractions``, and each computation
  imports the names it calls in its own body.  So a replay from the cache,
  ``--help``, a usage error or a budget refusal compiles this module alone.
  ``wgn`` and ``fgn`` are the exception: they read ``toprec.WGN_BOUND``
  before the cache is read, so even their replays import ``toprec``.  With
  no bytecode cache, ``import p1qcurve, p1qcurve.cli`` takes 12 ms against
  30 ms when this module imported ``exactcore`` and ``fractions`` at the
  top, and a ``gw`` replay, ``--help``, a usage error or a budget refusal
  as a whole process takes 76-83 ms against 102-109 ms (medians of 40 and
  20 fresh interpreters, 2-vCPU Xeon VM, Python 3.11.7);
* an :class:`~p1qcurve.exactcore.ExactError` raised by a handler or a
  computation exits 2 with ``error: <message>`` on stderr; every other
  exception propagates.  :func:`main` binds ``ExactError`` only when an
  exception reaches it, so a run that raises nothing loads ``exactcore``
  only if its computation does;
* if the environment variable ``P1QC_CACHE_DIR`` names a directory, the value
  commands (``xd``, ``gw``, ``wgn``, ``table``, ``fgn``) replay
  byte-identical results from it instead of recomputing; entries written by
  another package version are not used.  A replayed entry is checked for
  structure, not values: one that is not a well-formed document, or whose
  payload the ``--format`` renderer cannot read, is a miss, noted on stderr,
  recomputed and rewritten.  A store that fails is noted on stderr and
  skipped; the computed document is still printed.  The verification
  commands (``verify``, ``psi-check``, ``toda-check``) always recompute and
  never touch the cache.  The wall time on stderr includes the cache read.

The document is the plain dict ``{"command", "parameters", "status",
"payload"}`` from compute, through the cache, to stdout.  Each subcommand
handler checks its arguments and returns either an exit code (usage error or
budget refusal) or a :class:`_Plan`; :func:`main` runs every plan through
:func:`_run`, the only place that reads and writes the cache, and is itself
the only place that writes stdout and picks the exit code.

The argument parser is built once per process, on the first call to
:func:`main`, and reused by every later call; it holds the command grammar
and no results.  A fresh ``p1qc`` process builds it once either way; callers
that run several invocations in one process skip the rebuild.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, NamedTuple

from . import __version__

__all__ = ["main"]

CACHE_ENV = "P1QC_CACHE_DIR"

_NS_PAIRS = ((0, 3), (1, 1), (0, 4), (1, 2), (2, 1))
_RESUMMATION_BLOCKS = ((0, 1, 0), (1, 1, 0), (0, 1, 1), (0, 2, 1), (1, 1, 1))
_FIELDS = {"command", "parameters", "status", "payload"}
_STATUSES = ("value", "pass", "fail")


class _Plan(NamedTuple):
    """What a handler asks :func:`main` to run: the parameters echo, the
    computation of ``(status, payload)``, and an optional text renderer of
    the payload that replaces the JSON document on stdout."""

    parameters: dict
    compute: Callable[[], tuple[str, dict]]
    render: Callable[[dict], str] | None = None


def _effective(requested: int, budget: int | None) -> int:
    return requested if budget is None else min(requested, budget)


def _refuse(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Result cache (optional, directory named by environment variable)
# ---------------------------------------------------------------------------


def _dumps(doc: dict) -> str:
    """The canonical JSON text: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _cache_name(command: str, parameters: dict) -> str:
    """Entry file name; the key holds the package version, so an entry written
    by another version is never found."""
    import hashlib  # here, not at the top: it would add ~5 ms to every CLI start
    key = _dumps({"command": command, "parameters": parameters, "version": __version__})
    digest = hashlib.sha256(key.encode()).hexdigest()[:32]
    return f"{command}-{digest}.json"


def _cache_path(command: str, parameters: dict) -> str | None:
    root = os.environ.get(CACHE_ENV)
    if not root or not os.path.isdir(root):
        return None
    return os.path.join(root, _cache_name(command, parameters))


def _note_invalid(path: str) -> None:
    print(f"note: ignoring invalid cache entry {path}", file=sys.stderr)


def _cache_load(path: str | None) -> dict | None:
    """Replay a cache entry as its document, or None for a miss.  The entry
    is checked for structure, not values: it is a miss unless it is a JSON
    object with exactly the four document fields, a known status and an
    object payload, whose own command and parameters hash to its file name."""
    if path is None or not os.path.isfile(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if (type(doc) is dict and doc.keys() == _FIELDS and doc["status"] in _STATUSES
                and type(doc["payload"]) is dict
                and os.path.basename(path) == _cache_name(doc["command"], doc["parameters"])):
            return doc
    except (OSError, ValueError, RecursionError):
        pass
    _note_invalid(path)
    return None


def _cache_store(path: str | None, doc: dict) -> None:
    if path is None:
        return
    import tempfile  # here, not at the top: it would add ~9 ms to every CLI start
    # One temp file per writer, so concurrent stores of an entry cannot collide.
    # A store that fails is noted and skipped: the document is still printed.
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(_dumps(doc))
        os.replace(tmp, path)
    except OSError as exc:
        print(f"note: could not store cache entry {path}: {exc.strerror or exc}",
              file=sys.stderr)
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _render(plan: _Plan, doc: dict) -> str:
    return plan.render(doc["payload"]) if plan.render else _dumps(doc)


def _run(command: str, plan: _Plan, replay: bool) -> tuple[dict, str, float]:
    """The document, its stdout text and the wall time.  The document is
    replayed from the cache when ``replay`` allows it, otherwise computed
    (and stored, for a replayable command); a replayed payload that the text
    renderer cannot read is a miss too.  The wall time covers the cache read
    and the rendering."""
    t0 = time.perf_counter()
    path = _cache_path(command, plan.parameters) if replay else None
    doc = _cache_load(path)
    if doc is not None:
        try:
            return doc, _render(plan, doc), time.perf_counter() - t0
        except (LookupError, TypeError):
            _note_invalid(path)
    status, payload = plan.compute()
    doc = {"command": command, "parameters": plan.parameters, "status": status,
           "payload": payload}
    _cache_store(path, doc)
    return doc, _render(plan, doc), time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------


def _xd_csv(d: int, payload: dict) -> str:
    lines = ["d,part,index,value"]
    for name in sorted(k for k in payload if k in ("partition", "laguerre")):
        body = payload[name]
        for part in ("num", "den"):
            for idx, value in enumerate(body[part]):
                lines.append(f"{d},{name}.{part},{idx},{value}")
    if "equal" in payload:
        lines.append(f"{d},equal,,{str(payload['equal']).lower()}")
    return "\n".join(lines)


def _xd_pretty(payload: dict) -> str:
    lines = []
    for name in ("partition", "laguerre"):
        if name in payload:
            lines.append(f"{name}: {payload['pretty'][name]}")
    if "equal" in payload:
        lines.append(f"equal: {payload['equal']}")
    return "\n".join(lines)


def _table_csv(what: str, rows: list) -> str:
    if what == "smatrix":
        lines = ["k,r,c,value"]
        for row in rows:
            for r in (0, 1):
                for c in (0, 1):
                    lines.append(f"{row['k']},{r + 1},{c + 1},{row['entries'][r][c]}")
        return "\n".join(lines)
    if what == "xd":
        lines = ["d,part,index,value"]
        for row in rows:
            for part in ("num", "den"):
                for idx, v in enumerate(row["x"][part]):
                    lines.append(f"{row['d']},{part},{idx},{v}")
        return "\n".join(lines)
    lines = ["g,n,d,b,value"]
    for row in rows:
        b = " ".join(str(x) for x in row["b"])
        lines.append(f"{row['g']},{row['n']},{row['d']},{b},{row['value']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Verification suites: each takes its depth and the global budget and returns
# the witness of its first failure (None when it passes) and extra payload
# ---------------------------------------------------------------------------


def _suite_recursion(max_d: int, budget: int | None) -> tuple[str | None, dict]:
    from .qcurve import verify_xd_recursion
    for d in range(1, max_d + 1):
        if not verify_xd_recursion(d):
            return f"recursion, d={d}", {}
    return None, {}


def _suite_ydzero(max_d: int, budget: int | None) -> tuple[str | None, dict]:
    from .qcurve import y_polynomial
    for d in range(1, max_d + 1):
        if not y_polynomial(d).is_zero():
            return f"ydzero, d={d}", {}
    return None, {}


def _suite_han(max_d: int, budget: int | None) -> tuple[str | None, dict]:
    from .partitions import hook_refinement_check, partitions, summation_corollary_check
    for d in range(1, max_d + 1):
        if not summation_corollary_check(d):
            return f"summation corollary, d={d}", {}
    for mu in partitions(min(max_d, 8)):
        if not hook_refinement_check(mu):
            return f"hook refinement, mu={list(mu)}", {}
    return None, {}


def _quadratic_witness(d_max: int) -> str | None:
    """The first quadratic lattice relation that fails for d <= d_max."""
    from .qcurve import toda_quadratic_check
    for d in range(d_max + 1):
        for variant in ("full", "one-level"):
            if not toda_quadratic_check(d, variant):
                return f"quadratic, d={d}, variant={variant}"
    return None


def _suite_toda(max_d: int, budget: int | None) -> tuple[str | None, dict]:
    from .wavefunction import toda_specialization_check
    witness = _quadratic_witness(max_d)
    order = _effective(8, budget)
    if witness is None and not toda_specialization_check(order, min(max_d, 4)):
        witness = f"specialization, order={order}"
    return witness, {}


def _suite_theta(max_d: int, budget: int | None) -> tuple[str | None, dict]:
    from .toprec import theta_expansion_check
    from .wavefunction import theta_resummation_check
    order = _effective(12, budget)
    for i in (1, 2):
        for d in range(min(max_d, 4) + 1):
            if not theta_expansion_check(i, d, order):
                return f"pole primitive, i={i}, d={d}", {}
    for g, n, d in _RESUMMATION_BLOCKS:
        if not theta_resummation_check(g, n, d, min(order, 6)):
            return f"resummation, block=({g},{n},{d})", {}
    return None, {}


def _suite_ns(order: int, budget: int | None) -> tuple[str | None, dict]:
    from .toprec import ns_expansion_check
    for g, n in _NS_PAIRS:
        if not ns_expansion_check(g, n, order):
            return f"expansion, (g,n)=({g},{n})", {}
    return None, {}


def _suite_qce(max_d: int, budget: int | None) -> tuple[str | None, dict]:
    from .wavefunction import qce_verification
    report = qce_verification(max_d)
    links = {name: ok for name, ok in report.links}
    return (None if report else report.first_failure), {"links": links}


# name -> (default depth, runner); "all" runs every suite in this order
_SUITES = {
    "recursion": (20, _suite_recursion),
    "ydzero": (20, _suite_ydzero),
    "han": (12, _suite_han),
    "toda": (8, _suite_toda),
    "theta": (4, _suite_theta),
    "ns": (10, _suite_ns),
    "qce": (10, _suite_qce),
}


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns an exit code or a _Plan
# ---------------------------------------------------------------------------


def cmd_xd(args, budget: int | None) -> int | _Plan:
    if args.d < 0:
        return _refuse("--d must be nonnegative")

    def compute() -> tuple[str, dict]:
        from .qcurve import x_laguerre, x_partition
        payload: dict = {"pretty": {}}
        for name, build in (("partition", x_partition), ("laguerre", x_laguerre)):
            if args.form in (name, "both"):
                f = build(args.d)
                payload[name] = f.to_json()
                payload["pretty"][name] = f.pretty("u")
        if args.form != "both":
            return "value", payload
        payload["equal"] = payload["partition"] == payload["laguerre"]
        return ("pass" if payload["equal"] else "fail"), payload

    renderers = {"csv": lambda payload: _xd_csv(args.d, payload), "pretty": _xd_pretty}
    return _Plan({"d": args.d, "form": args.form, "budget_used": None}, compute,
                 renderers.get(args.format))


def cmd_verify(args, budget: int | None) -> int | _Plan:
    if args.suite == "all":
        if args.max is not None and args.max < 1:
            return _refuse(f"--max {args.max} leaves every suite with an empty range")
        # --max caps every suite's default depth, exactly as --budget does.
        depths = {name: _effective(_effective(default, budget), args.max)
                  for name, (default, _) in _SUITES.items()}
        max_echo = args.max
    elif args.suite in _SUITES:
        max_echo = _effective(args.max if args.max is not None else _SUITES[args.suite][0],
                              budget)
        if max_echo < 1:
            return _refuse(f"--max {args.max} leaves suite {args.suite!r} with an empty range")
        depths = {args.suite: max_echo}
    else:
        return _refuse(f"unknown suite {args.suite!r}; "
                       f"choose from {', '.join(_SUITES)}, all")
    # the order _suite_toda runs at, refused here before any suite computes
    if "toda" in depths and _effective(8, budget) < 2:
        return _refuse(f"--budget {budget} caps the toda suite's order below its least order, 2")

    def compute() -> tuple[str, dict]:
        payload: dict = {}
        suites: dict[str, str] = {}
        witnesses = []
        for name, depth in depths.items():
            witness, extra = _SUITES[name][1](depth, budget)
            payload.update(extra)
            suites[name] = "pass" if witness is None else "fail"
            if witness is not None:
                witnesses.append(f"{name}: {witness}" if args.suite == "all" else witness)
        if args.suite == "all":
            payload["suites"] = suites
        if witnesses:
            payload["witness"] = witnesses[0]
        return ("fail" if witnesses else "pass"), payload

    return _Plan({"suite": args.suite, "max": max_echo, "budget_used": depths}, compute)


def cmd_gw(args, budget: int | None) -> int | _Plan:
    try:
        b = tuple(int(s) for s in args.b.split(",")) if args.b else ()
    except ValueError:
        return _refuse(f"--b must be a comma-separated integer list, got {args.b!r}")
    if args.g < 0 or args.d < 0 or args.n < 1:
        return _refuse("need --g >= 0, --n >= 1, --d >= 0")
    if len(b) != args.n:
        return _refuse(f"--n {args.n} does not match {len(b)} exponents in --b")
    if any(bi < -2 for bi in b):
        return _refuse("descendant exponents below -2 are not defined")
    required = sum(max(bi, 0) for bi in b) + args.n
    if budget is not None and required > budget:
        return _refuse("order budget exceeded; this invariant requires expansion "
                       f"order {required}", 1)

    def compute() -> tuple[str, dict]:
        from .exactcore import rational_to_json
        from .wedge import stationary_invariant
        payload = {"value": rational_to_json(stationary_invariant(args.g, args.n, args.d, b))}
        if sum(b) != 2 * args.g - 2 + 2 * args.d:
            payload["warning"] = "dimension-violation"
        return "value", payload

    return _Plan({"g": args.g, "n": args.n, "d": args.d, "b": list(b),
                  "budget_used": required}, compute)


def _refuse_pair(args, order: int, unstable: str) -> int | None:
    """The exit code refusing ``(--g, --n)`` outside the stable range or
    above ``WGN_BOUND``, or a capped ``--order`` below 1; None when all hold."""
    from .toprec import WGN_BOUND
    if args.g < 0 or args.n < 1:
        return _refuse("need --g >= 0 and --n >= 1")
    complexity = 2 * args.g - 2 + args.n
    if complexity <= 0:
        return _refuse(unstable)
    if complexity > WGN_BOUND:
        return _refuse(f"complexity 2g-2+n = {complexity} exceeds the configured "
                       f"bound {WGN_BOUND}", 1)
    if order < 1:
        return _refuse("--order must be at least 1 after budget capping")
    return None


def cmd_wgn(args, budget: int | None) -> int | _Plan:
    order = _effective(args.order, budget)
    refused = _refuse_pair(args, order, "the recursion output is defined on the stable "
                           "range 2g-2+n > 0; the unstable forms have their own closed shapes")
    if refused is not None:
        return refused

    def compute() -> tuple[str, dict]:
        from fractions import Fraction

        from .exactcore import rational_to_json
        from .toprec import _wgn_x_series, toprec_wgn
        form = toprec_wgn(args.g, args.n)
        if args.emit == "expansion":
            return "value", {"expansion": _wgn_x_series(form, order).to_json()}
        terms = sorted(
            ([[rational_to_json(a), j] for a, j in key], rational_to_json(c))
            for key, c in form.terms.items()
        )
        sample = [Fraction(k + 2) for k in range(args.n)]
        return "value", {
            "terms": [{"poles": poles, "coeff": c} for poles, c in terms],
            "pole_orders": list(form.pole_orders()),
            "sample": {
                "points": [rational_to_json(p) for p in sample],
                "value": rational_to_json(form.evaluate(sample)),
            },
        }

    return _Plan({"g": args.g, "n": args.n, "emit": args.emit, "order": order,
                  "budget_used": order}, compute)


def _parse_range(text: str) -> tuple[int, int] | None:
    try:
        lo, hi = text.split("..")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        return None
    if lo_i > hi_i or lo_i < 0:
        return None
    return lo_i, hi_i


def _table_rows(what: str, lo: int, hi: int) -> list:
    from .exactcore import rational_to_json
    rows: list = []
    if what == "smatrix":
        from .toprec import s_matrix
        for k in range(lo, hi + 1):
            m = s_matrix(k)
            rows.append({
                "k": k,
                "entries": [[rational_to_json(m.entry(r, c)) for c in (1, 2)] for r in (1, 2)],
            })
        return rows
    if what == "xd":
        from .qcurve import x_partition
        return [{"d": d, "x": x_partition(d).to_json()} for d in range(lo, hi + 1)]
    from .partitions import _sorted_tuples
    from .wedge import stationary_invariant
    for d in range(lo, hi + 1):
        for g in range(0, 3):
            for n in range(1, 4):
                total = 2 * g - 2 + 2 * d
                # weakly increasing nonnegative b in lexicographic order
                for b in _sorted_tuples(total, n):
                    value = stationary_invariant(g, n, d, b)
                    if value:
                        rows.append({"g": g, "n": n, "d": d, "b": list(b),
                                     "value": rational_to_json(value)})
    return rows


def cmd_table(args, budget: int | None) -> int | _Plan:
    parsed = _parse_range(args.range)
    if parsed is None:
        return _refuse(f"--range must look like A..B with 0 <= A <= B, got {args.range!r}")
    lo, hi = parsed

    def render(payload: dict) -> str:
        return _table_csv(args.what, payload["rows"])

    return _Plan({"what": args.what, "range": [lo, hi], "budget_used": None},
                 lambda: ("value", {"rows": _table_rows(args.what, lo, hi)}),
                 render if args.format == "csv" else None)


def cmd_fgn(args, budget: int | None) -> int | _Plan:
    order = _effective(args.order, budget)
    refused = _refuse_pair(args, order, "primitives exist on the stable range 2g-2+n > 0")
    if refused is not None:
        return refused

    def compute() -> tuple[str, dict]:
        from .toprec import fgn_x_expansion
        return "value", {"expansion": fgn_x_expansion(args.g, args.n, order).to_json()}

    return _Plan({"g": args.g, "n": args.n, "order": order, "budget_used": order}, compute)


def cmd_psi_check(args, budget: int | None) -> int | _Plan:
    d_max = _effective(args.dmax, budget)
    order = _effective(args.order, budget)
    if d_max < 1 or order < 1:
        return _refuse("--dmax and --order must stay positive after budget capping")

    def compute() -> tuple[str, dict]:
        from .wavefunction import qce_verification, semiclassical_check, theta_resummation_check
        report = qce_verification(d_max)
        semi = semiclassical_check()
        blocks = {f"({g},{n},{d})": theta_resummation_check(g, n, d, min(order, 6))
                  for g, n, d in _RESUMMATION_BLOCKS}
        payload: dict = {
            "links": {name: ok for name, ok in report.links},
            "semiclassical": semi,
            "resummation": blocks,
        }
        if bool(report) and semi and all(blocks.values()):
            return "pass", payload
        payload["witness"] = report.first_failure or (
            "semiclassical" if not semi else next(k for k, v in blocks.items() if not v)
        )
        return "fail", payload

    return _Plan({"dmax": d_max, "order": order,
                  "budget_used": {"dmax": d_max, "order": order}}, compute)


def cmd_toda_check(args, budget: int | None) -> int | _Plan:
    order = _effective(args.order, budget)
    d_max = _effective(args.dmax, budget)
    if order < 2 or d_max < 0:
        return _refuse("--order must be >= 2 and --dmax >= 0 after budget capping")

    def compute() -> tuple[str, dict]:
        from .wavefunction import toda_specialization_check
        payload: dict = {"order": order, "d_max": d_max}
        if toda_specialization_check(order, d_max):
            return "pass", payload
        # isolate the failing part for the witness
        payload["witness"] = _quadratic_witness(d_max) or "telescoping/kernel identity"
        return "fail", payload

    return _Plan({"order": order, "dmax": d_max,
                  "budget_used": {"order": order, "dmax": d_max}}, compute)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p1qc",
        description="Exact partition sums, stationary invariants, recursion "
                    "forms, and difference-operator verifications.",
    )
    parser.add_argument("--budget", type=int, default=None,
                        help="cap on truncation orders and on the depths of verify, "
                             "psi-check and toda-check; gw exits 1 when a query needs "
                             "a higher order; xd --d and table --range are not capped")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("xd", help="degree-d partition sum as a rational function of u")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--form", choices=("partition", "laguerre", "both"), default="partition")
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--max", type=int, default=None)

    p = sub.add_parser("gw", help="one stationary invariant as an exact rational")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--b", type=str, required=True,
                   help="comma-separated descendant exponents, e.g. '0,0,0'")

    p = sub.add_parser("wgn", help="recursion output for (g,n): pole data or x-expansion")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit", choices=("form", "expansion"), default="form")
    p.add_argument("--order", type=int, default=6)

    p = sub.add_parser("table", help="bulk tables: invariants, partition sums, transition matrices")
    p.add_argument("--what", choices=("invariants", "xd", "smatrix"), required=True)
    p.add_argument("--range", type=str, required=True, help="inclusive range A..B")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("fgn", help="primitive of the recursion output, expanded at large x")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, default=6)

    p = sub.add_parser("psi-check", help="full wave-function verification battery")
    p.add_argument("--dmax", type=int, default=10)
    p.add_argument("--order", type=int, default=6)

    p = sub.add_parser("toda-check", help="lattice specialization checks")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--dmax", type=int, default=4)

    return parser


# subcommand -> (handler, whether its result replays from the cache)
_COMMANDS = {
    "xd": (cmd_xd, True),
    "verify": (cmd_verify, False),
    "gw": (cmd_gw, True),
    "wgn": (cmd_wgn, True),
    "table": (cmd_table, True),
    "fgn": (cmd_fgn, True),
    "psi-check": (cmd_psi_check, False),
    "toda-check": (cmd_toda_check, False),
}


# the parser of this process, built by the first call to main, not at import,
# so that importing the module does not pay for it
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    """Run one ``p1qc`` invocation and return its exit code.

    The argument parser is built on the first call and kept for the rest of
    the process; it holds only the command grammar, no results, so a later
    call parses exactly as a fresh parser would."""
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.budget is not None and args.budget < 1:
        return _refuse("--budget must be a positive integer")
    handler, replay = _COMMANDS[args.subcommand]
    # An exact entry (one of s_matrix(1603), say) may pass Python's limit on
    # int-to-str digits (3.10.7 on), so the limit is lifted while the
    # document is computed and rendered; argv is parsed under it.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        plan = handler(args, args.budget)
        if isinstance(plan, int):
            return plan
        if limit is not None:
            sys.set_int_max_str_digits(0)
        doc, text, wall_time = _run(args.subcommand, plan, replay)
    except Exception as exc:
        # bound here, not at the top, so that a run that raises nothing
        # loads the kernel module only if its computation does
        from .exactcore import ExactError
        if not isinstance(exc, ExactError):
            raise
        return _refuse(str(exc))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    sys.stdout.write(text + "\n")
    print(f"wall-time: {wall_time:.3f}s", file=sys.stderr)
    return 0 if doc["status"] in ("value", "pass") else 1


if __name__ == "__main__":
    sys.exit(main())

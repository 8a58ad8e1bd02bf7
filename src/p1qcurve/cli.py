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
* a global ``--budget`` flag caps every truncation order; each command
  reports the budget it actually used in its ``parameters`` echo;
* if the environment variable ``P1QC_CACHE_DIR`` names a directory, value
  commands replay byte-identical results from it instead of recomputing;
  entries written by another package version are not used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction as Frac

from . import __version__
from .exactcore import ExactError, rational_to_json
from .qcurve import (
    toda_quadratic_check,
    verify_xd_recursion,
    x_laguerre,
    x_partition,
    y_polynomial,
)
from .partitions import hook_refinement_check, partitions, summation_corollary_check
from .toprec import (
    fgn_x_expansion,
    ns_expansion_check,
    s_matrix,
    theta_expansion_check,
    toprec_wgn,
    WGN_BOUND,
    _wgn_x_series,
)
from .wavefunction import (
    qce_verification,
    semiclassical_check,
    theta_resummation_check,
    toda_specialization_check,
)
from .wedge import stationary_invariant

__all__ = ["CommandResult", "main"]

CACHE_ENV = "P1QC_CACHE_DIR"

_NS_PAIRS = ((0, 3), (1, 1), (0, 4), (1, 2), (2, 1))
_RESUMMATION_BLOCKS = ((0, 1, 0), (1, 1, 0), (0, 1, 1), (0, 2, 1), (1, 1, 1))


@dataclass
class CommandResult:
    """Canonical outcome of one invocation.  ``wall_time`` is reported on
    stderr and deliberately excluded from the canonical document so that
    identical invocations emit identical bytes."""

    command: str
    parameters: dict
    status: str  # "pass" | "fail" | "value"
    payload: dict
    wall_time: float = 0.0

    def canonical(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "status": self.status,
            "payload": self.payload,
        }

    def to_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))


def _effective(requested: int, budget: int | None) -> int:
    return requested if budget is None else min(requested, budget)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(result: CommandResult, text: str | None = None) -> None:
    sys.stdout.write((text if text is not None else result.to_json()) + "\n")
    print(f"wall-time: {result.wall_time:.3f}s", file=sys.stderr)


# ---------------------------------------------------------------------------
# Result cache (optional, directory named by environment variable)
# ---------------------------------------------------------------------------


def _cache_name(command: str, parameters: dict) -> str:
    """Entry file name; the key holds the package version, so an entry written
    by another version is never found."""
    key = json.dumps({"command": command, "parameters": parameters, "version": __version__},
                     sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(key.encode()).hexdigest()[:32]
    return f"{command}-{digest}.json"


def _cache_path(command: str, parameters: dict) -> str | None:
    root = os.environ.get(CACHE_ENV)
    if not root or not os.path.isdir(root):
        return None
    return os.path.join(root, _cache_name(command, parameters))


def _cache_load(path: str | None) -> CommandResult | None:
    """Replay a cache entry; an unreadable entry, or one whose own command
    and parameters do not hash to its file name, is a miss."""
    if path is None or not os.path.isfile(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        result = CommandResult(
            data["command"], data["parameters"], data["status"], data["payload"]
        )
        if os.path.basename(path) == _cache_name(result.command, result.parameters):
            return result
    except (OSError, ValueError, KeyError, TypeError):
        pass
    print(f"note: ignoring invalid cache entry {path}", file=sys.stderr)
    return None


def _cache_store(path: str | None, result: CommandResult) -> None:
    if path is None:
        return
    import tempfile  # here, not at the top: it would add ~9 ms to every CLI start
    # One temp file per writer, so concurrent stores of an entry cannot collide.
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(result.to_json())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------


def _rational_function_json(f) -> dict:
    return f.to_json()


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


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns the process exit code)
# ---------------------------------------------------------------------------


def cmd_xd(args, budget: int | None) -> int:
    if args.d < 0:
        return _usage_error("--d must be nonnegative")
    parameters = {"d": args.d, "form": args.form, "budget_used": None}
    cache = _cache_path("xd", parameters)
    cached = _cache_load(cache)
    t0 = time.perf_counter()
    if cached is not None:
        result = cached
    else:
        payload: dict = {"pretty": {}}
        if args.form in ("partition", "both"):
            f = x_partition(args.d)
            payload["partition"] = _rational_function_json(f)
            payload["pretty"]["partition"] = f.pretty("u")
        if args.form in ("laguerre", "both"):
            f = x_laguerre(args.d)
            payload["laguerre"] = _rational_function_json(f)
            payload["pretty"]["laguerre"] = f.pretty("u")
        status = "value"
        if args.form == "both":
            equal = payload["partition"] == payload["laguerre"]
            payload["equal"] = equal
            status = "pass" if equal else "fail"
        result = CommandResult("xd", parameters, status, payload)
        _cache_store(cache, result)
    result.wall_time = time.perf_counter() - t0
    if args.format == "csv":
        _emit(result, _xd_csv(args.d, result.payload))
    elif args.format == "pretty":
        _emit(result, _xd_pretty(result.payload))
    else:
        _emit(result)
    return 0 if result.status in ("value", "pass") else 1


def _suite_recursion(max_d: int) -> tuple[bool, str | None]:
    for d in range(1, max_d + 1):
        if not verify_xd_recursion(d):
            return False, f"recursion, d={d}"
    return True, None


def _suite_ydzero(max_d: int) -> tuple[bool, str | None]:
    for d in range(1, max_d + 1):
        if not y_polynomial(d).is_zero():
            return False, f"ydzero, d={d}"
    return True, None


def _suite_han(max_d: int) -> tuple[bool, str | None]:
    for d in range(1, max_d + 1):
        if not summation_corollary_check(d):
            return False, f"summation corollary, d={d}"
    for mu in partitions(min(max_d, 8)):
        if not hook_refinement_check(mu):
            return False, f"hook refinement, mu={list(mu)}"
    return True, None


def _suite_toda(max_d: int, order: int) -> tuple[bool, str | None]:
    for d in range(max_d + 1):
        for variant in ("full", "one-level"):
            if not toda_quadratic_check(d, variant):
                return False, f"quadratic, d={d}, variant={variant}"
    if not toda_specialization_check(order, min(max_d, 4)):
        return False, f"specialization, order={order}"
    return True, None


def _suite_theta(max_d: int, order: int) -> tuple[bool, str | None]:
    for i in (1, 2):
        for d in range(min(max_d, 4) + 1):
            if not theta_expansion_check(i, d, order):
                return False, f"pole primitive, i={i}, d={d}"
    for g, n, d in _RESUMMATION_BLOCKS:
        if not theta_resummation_check(g, n, d, min(order, 6)):
            return False, f"resummation, block=({g},{n},{d})"
    return True, None


def _suite_ns(order: int) -> tuple[bool, str | None]:
    for g, n in _NS_PAIRS:
        if not ns_expansion_check(g, n, order):
            return False, f"expansion, (g,n)=({g},{n})"
    return True, None


def _suite_qce(max_d: int) -> tuple[bool, str | None, dict]:
    report = qce_verification(max_d)
    links = {name: ok for name, ok in report.links}
    return bool(report), report.first_failure, {"links": links}


_SUITES = ("recursion", "ydzero", "han", "toda", "theta", "ns", "qce", "all")


def cmd_verify(args, budget: int | None) -> int:
    if args.suite not in _SUITES:
        return _usage_error(f"unknown suite {args.suite!r}; choose from {', '.join(_SUITES)}")
    defaults = {
        "recursion": 20, "ydzero": 20, "han": 12, "toda": 8,
        "theta": 4, "ns": 10, "qce": 10, "all": 0,
    }
    max_n = args.max if args.max is not None else defaults[args.suite]
    if args.suite != "all":
        max_n = _effective(max_n, budget)
        if max_n < 1:
            return _usage_error(f"--max {args.max} leaves suite {args.suite!r} with an empty range")
    elif args.max is not None and args.max < 1:
        return _usage_error(f"--max {args.max} leaves every suite with an empty range")

    def run_one(name: str, n: int) -> tuple[bool, str | None, dict]:
        if name == "recursion":
            ok, witness = _suite_recursion(n)
        elif name == "ydzero":
            ok, witness = _suite_ydzero(n)
        elif name == "han":
            ok, witness = _suite_han(n)
        elif name == "toda":
            ok, witness = _suite_toda(n, _effective(8, budget))
        elif name == "theta":
            ok, witness = _suite_theta(n, _effective(12, budget))
        elif name == "ns":
            ok, witness = _suite_ns(n)
        else:
            return _suite_qce(n)
        return ok, witness, {}

    t0 = time.perf_counter()
    if args.suite == "all":
        # --max caps every sub-suite's default depth, exactly as --budget does.
        caps = {name: _effective(_effective(defaults[name], budget), args.max)
                for name in _SUITES[:-1]}
        suites: dict[str, str] = {}
        witness = None
        extra: dict = {}
        all_ok = True
        for name in _SUITES[:-1]:
            ok, w, info = run_one(name, caps[name])
            suites[name] = "pass" if ok else "fail"
            extra.update(info)
            if not ok and all_ok:
                all_ok = False
                witness = f"{name}: {w}"
        payload = {"suites": suites, **extra}
        ok = all_ok
        used = dict(caps)
    else:
        ok, witness, payload = run_one(args.suite, max_n)
        used = {args.suite: max_n}
    parameters = {"suite": args.suite, "max": args.max if args.suite == "all" else max_n,
                  "budget_used": used}
    if not ok:
        payload = {**payload, "witness": witness}
    result = CommandResult("verify", parameters, "pass" if ok else "fail", payload,
                           time.perf_counter() - t0)
    _emit(result)
    return 0 if ok else 1


def cmd_gw(args, budget: int | None) -> int:
    try:
        b = tuple(int(s) for s in args.b.split(",")) if args.b else ()
    except ValueError:
        return _usage_error(f"--b must be a comma-separated integer list, got {args.b!r}")
    if args.g < 0 or args.d < 0 or args.n < 1:
        return _usage_error("need --g >= 0, --n >= 1, --d >= 0")
    if len(b) != args.n:
        return _usage_error(f"--n {args.n} does not match {len(b)} exponents in --b")
    if any(bi < -2 for bi in b):
        return _usage_error("descendant exponents below -2 are not defined")
    required = sum(max(bi, 0) for bi in b) + args.n
    if budget is not None and required > budget:
        print(f"error: order budget exceeded; this invariant requires expansion "
              f"order {required}", file=sys.stderr)
        return 1
    parameters = {"g": args.g, "n": args.n, "d": args.d, "b": list(b),
                  "budget_used": required}
    cache = _cache_path("gw", parameters)
    cached = _cache_load(cache)
    t0 = time.perf_counter()
    if cached is not None:
        result = cached
    else:
        value, reason = stationary_invariant(args.g, args.n, args.d, b, explain=True)
        payload = {"value": rational_to_json(value)}
        if reason is not None:
            payload["warning"] = reason
        result = CommandResult("gw", parameters, "value", payload)
        _cache_store(cache, result)
    result.wall_time = time.perf_counter() - t0
    _emit(result)
    return 0


def cmd_wgn(args, budget: int | None) -> int:
    if args.g < 0 or args.n < 1:
        return _usage_error("need --g >= 0 and --n >= 1")
    if 2 * args.g - 2 + args.n <= 0:
        return _usage_error("the recursion output is defined on the stable range "
                            "2g-2+n > 0; the unstable forms have their own closed shapes")
    complexity = 2 * args.g - 2 + args.n
    if complexity > WGN_BOUND:
        print(f"error: complexity 2g-2+n = {complexity} exceeds the configured "
              f"bound {WGN_BOUND}", file=sys.stderr)
        return 1
    order = _effective(args.order, budget)
    if order < 1:
        return _usage_error("--order must be at least 1 after budget capping")
    parameters = {"g": args.g, "n": args.n, "emit": args.emit, "order": order,
                  "budget_used": order}
    cache = _cache_path("wgn", parameters)
    cached = _cache_load(cache)
    t0 = time.perf_counter()
    if cached is not None:
        result = cached
    else:
        form = toprec_wgn(args.g, args.n)
        if args.emit == "form":
            terms = sorted(
                (
                    [[rational_to_json(a), j] for a, j in key],
                    rational_to_json(c),
                )
                for key, c in form.terms.items()
            )
            sample = [Frac(k + 2) for k in range(args.n)]
            payload = {
                "terms": [{"poles": poles, "coeff": c} for poles, c in terms],
                "pole_orders": list(form.pole_orders()),
                "sample": {
                    "points": [rational_to_json(p) for p in sample],
                    "value": rational_to_json(form.evaluate(sample)),
                },
            }
        else:
            payload = {"expansion": _wgn_x_series(form, order).to_json()}
        result = CommandResult("wgn", parameters, "value", payload)
        _cache_store(cache, result)
    result.wall_time = time.perf_counter() - t0
    _emit(result)
    return 0


def _parse_range(text: str) -> tuple[int, int] | None:
    try:
        lo, hi = text.split("..")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        return None
    if lo_i > hi_i or lo_i < 0:
        return None
    return lo_i, hi_i


def cmd_table(args, budget: int | None) -> int:
    parsed = _parse_range(args.range)
    if parsed is None:
        return _usage_error(f"--range must look like A..B with 0 <= A <= B, got {args.range!r}")
    lo, hi = parsed
    parameters = {"what": args.what, "range": [lo, hi], "budget_used": None}
    cache = _cache_path("table", parameters)
    cached = _cache_load(cache)
    t0 = time.perf_counter()
    if cached is not None:
        result = cached
    else:
        rows: list = []
        if args.what == "smatrix":
            for k in range(lo, hi + 1):
                m = s_matrix(k)
                rows.append({
                    "k": k,
                    "entries": [[rational_to_json(m.entry(r, c)) for c in (1, 2)]
                                for r in (1, 2)],
                })
        elif args.what == "xd":
            for d in range(lo, hi + 1):
                rows.append({"d": d, "x": x_partition(d).to_json()})
        else:  # invariants
            for d in range(lo, hi + 1):
                for g in range(0, 3):
                    for n in range(1, 4):
                        total = 2 * g - 2 + 2 * d
                        if total < 0:
                            continue
                        seen = set()
                        for b in _sorted_tuples(total, n):
                            if b in seen:
                                continue
                            seen.add(b)
                            value = stationary_invariant(g, n, d, b)
                            if value:
                                rows.append({
                                    "g": g, "n": n, "d": d, "b": list(b),
                                    "value": rational_to_json(value),
                                })
        result = CommandResult("table", parameters, "value", {"rows": rows})
        _cache_store(cache, result)
    result.wall_time = time.perf_counter() - t0
    if args.format == "csv":
        _emit(result, _table_csv(args.what, result.payload["rows"]))
    else:
        _emit(result)
    return 0


def _sorted_tuples(total: int, n: int):
    """Weakly increasing nonnegative tuples of length n with the given sum."""
    def rec(rem: int, k: int, floor: int):
        if k == 1:
            if rem >= floor:
                yield (rem,)
            return
        for first in range(floor, rem // k + 1):
            for rest in rec(rem - first, k - 1, first):
                yield (first,) + rest
    yield from rec(total, n, 0)


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


def cmd_fgn(args, budget: int | None) -> int:
    if args.g < 0 or args.n < 1:
        return _usage_error("need --g >= 0 and --n >= 1")
    if 2 * args.g - 2 + args.n <= 0:
        return _usage_error("primitives exist on the stable range 2g-2+n > 0")
    complexity = 2 * args.g - 2 + args.n
    if complexity > WGN_BOUND:
        print(f"error: complexity 2g-2+n = {complexity} exceeds the configured "
              f"bound {WGN_BOUND}", file=sys.stderr)
        return 1
    order = _effective(args.order, budget)
    if order < 1:
        return _usage_error("--order must be at least 1 after budget capping")
    parameters = {"g": args.g, "n": args.n, "order": order, "budget_used": order}
    cache = _cache_path("fgn", parameters)
    cached = _cache_load(cache)
    t0 = time.perf_counter()
    if cached is not None:
        result = cached
    else:
        series = fgn_x_expansion(args.g, args.n, order)
        result = CommandResult("fgn", parameters, "value", {"expansion": series.to_json()})
        _cache_store(cache, result)
    result.wall_time = time.perf_counter() - t0
    _emit(result)
    return 0


def cmd_psi_check(args, budget: int | None) -> int:
    d_max = _effective(args.dmax, budget)
    order = _effective(args.order, budget)
    if d_max < 1 or order < 1:
        return _usage_error("--dmax and --order must stay positive after budget capping")
    t0 = time.perf_counter()
    report = qce_verification(d_max)
    links = {name: ok for name, ok in report.links}
    semi = semiclassical_check()
    blocks = {}
    for g, n, d in _RESUMMATION_BLOCKS:
        blocks[f"({g},{n},{d})"] = theta_resummation_check(g, n, d, min(order, 6))
    ok = bool(report) and semi and all(blocks.values())
    payload: dict = {
        "links": links,
        "semiclassical": semi,
        "resummation": blocks,
    }
    if not ok:
        witness = report.first_failure or (
            "semiclassical" if not semi else
            next(k for k, v in blocks.items() if not v)
        )
        payload["witness"] = witness
    parameters = {"dmax": d_max, "order": order, "budget_used": {"dmax": d_max, "order": order}}
    result = CommandResult("psi-check", parameters, "pass" if ok else "fail",
                           payload, time.perf_counter() - t0)
    _emit(result)
    return 0 if ok else 1


def cmd_toda_check(args, budget: int | None) -> int:
    order = _effective(args.order, budget)
    d_max = _effective(args.dmax, budget)
    if order < 2 or d_max < 0:
        return _usage_error("--order must be >= 2 and --dmax >= 0 after budget capping")
    t0 = time.perf_counter()
    ok = toda_specialization_check(order, d_max)
    payload: dict = {"order": order, "d_max": d_max}
    if not ok:
        # isolate the failing part for the witness
        witness = None
        for d in range(d_max + 1):
            for variant in ("full", "one-level"):
                if not toda_quadratic_check(d, variant):
                    witness = f"quadratic, d={d}, variant={variant}"
                    break
            if witness:
                break
        payload["witness"] = witness or "telescoping/kernel identity"
    parameters = {"order": order, "dmax": d_max,
                  "budget_used": {"order": order, "dmax": d_max}}
    result = CommandResult("toda-check", parameters, "pass" if ok else "fail",
                           payload, time.perf_counter() - t0)
    _emit(result)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p1qc",
        description="Exact partition sums, stationary invariants, recursion "
                    "forms, and difference-operator verifications.",
    )
    parser.add_argument("--budget", type=int, default=None,
                        help="global cap on truncation orders and ranges")
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


_DISPATCH = {
    "xd": cmd_xd,
    "verify": cmd_verify,
    "gw": cmd_gw,
    "wgn": cmd_wgn,
    "table": cmd_table,
    "fgn": cmd_fgn,
    "psi-check": cmd_psi_check,
    "toda-check": cmd_toda_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.budget is not None and args.budget < 1:
        return _usage_error("--budget must be a positive integer")
    try:
        return _DISPATCH[args.subcommand](args, args.budget)
    except ExactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's four workloads.

Each workload builds one *pass*: a list of operations that a single client
runs one after the other (closed loop).  A pass starts with empty memo
tables; an operation marked ``cold`` starts with empty tables too, as a
fresh ``p1qc`` process would.  Every operation's output is checked exactly,
against ``expected.json`` where there is a reference value.

The seed only orders and picks inputs; see README.md for what it sets in
each workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from p1qcurve import cli, qcurve, toprec, wavefunction
from p1qcurve.exactcore import rational_to_json

XD_TOP = 15  # highest degree of the xd_tower ladder
RESIDUE_PAIRS = ((0, 3), (1, 1), (0, 4), (1, 2), (2, 1))
RESIDUE_ORDER = 8  # fgn_x_expansion order
NS_ORDER = 10  # ns_expansion_check total order
RESIDUE_POINTS = 3  # odd_under_involution sample points per pair
RESUMMATION_BLOCKS = ((0, 1, 0), (1, 1, 0), (0, 1, 1), (0, 2, 1), (1, 1, 1))
GW_MAX_GENUS = 2
GW_MAX_POINTS = 4
GW_MAX_DEGREE = 8
GW_STRIDE = 25  # a pass computes every GW_STRIDE-th query of the sorted space
GW_REPEATS = 0.5  # replayed queries per computed query: a third of the stream

WORKLOADS = ("xd_tower", "qce_chain", "gw_queries", "residue_forms")


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``check`` returns ``None`` when the output is right and a reason
    otherwise.  ``expect`` is the path of the reference value in
    ``expected.json`` that ``check`` reads, if any.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    cold: bool = False
    expect: tuple[str, ...] | None = None


def digest(doc) -> str:
    """Short SHA-256 of a JSON document in canonical form."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def form_json(form) -> list:
    """Pole data of a ``CorrelationForm`` in the sorted wire form of
    ``p1qc wgn --emit form``."""
    return sorted(
        ([[rational_to_json(a), j] for a, j in key], rational_to_json(c))
        for key, c in form.terms.items()
    )


def pole_report_json(report: dict) -> list:
    return [[rational_to_json(root), order] for root, order in sorted(report.items())]


def _sorted_exponents(total: int, n: int, low: int = 0):
    if n == 0:
        if total == 0:
            yield ()
        return
    for v in range(low, total // n + 1):
        for rest in _sorted_exponents(total - v, n - 1, v):
            yield (v,) + rest


def query_space() -> list[tuple[int, int, int, tuple[int, ...]]]:
    """Every valid ``p1qc gw`` query (g, n, d, b): g <= 2, n <= 4,
    1 <= d <= 8, sorted b >= 0 with sum(b) = 2g - 2 + 2d; sorted by
    (d, n, g, b), so neighbours cost about the same."""
    out = []
    for g in range(GW_MAX_GENUS + 1):
        for n in range(1, GW_MAX_POINTS + 1):
            for d in range(1, GW_MAX_DEGREE + 1):
                total = 2 * g - 2 + 2 * d
                if total >= 0:
                    out.extend((g, n, d, b) for b in _sorted_exponents(total, n))
    return sorted(out, key=lambda q: (q[2], q[1], q[0], q[3]))


def gw_key(query) -> str:
    g, n, d, b = query
    return f"{g}:{n}:{d}:{','.join(map(str, b))}"


def lookup(expected: dict, path: tuple[str, ...]):
    node = expected
    for part in path:
        node = node[part]
    return node


def _is_true(result) -> str | None:
    return None if result is True else f"verdict {result!r}"


def _matches(expected: dict, path: tuple[str, ...], got) -> str | None:
    want = lookup(expected, path)
    return None if got == want else f"got {got!r}, expected {want!r}"


# ---------------------------------------------------------------------------
# xd_tower
# ---------------------------------------------------------------------------


def xd_tower(rng: random.Random, expected: dict) -> list[Op]:
    """Every x_partition first, then the checks of each degree, both in the
    seed's order of degrees.  Building the whole tower first keeps each
    check's cost independent of that order: verify_xd_recursion(d) would
    otherwise compute x_partition(d - 1) whenever d came first."""
    degrees = list(range(1, XD_TOP + 1))
    rng.shuffle(degrees)
    ops = [
        Op(f"x_partition({d})",
           lambda d=d: qcurve.x_partition(d),
           lambda f, p=("xd", str(d), "x_partition"): _matches(expected, p, digest(f.to_json())),
           expect=("xd", str(d), "x_partition"))
        for d in degrees
    ]
    for d in degrees:
        path = ("xd", str(d))
        ops.append(Op(
            f"verify_xd_recursion({d})",
            lambda d=d: qcurve.verify_xd_recursion(d),
            _is_true,
        ))
        ops.append(Op(
            f"y_polynomial({d})",
            lambda d=d: qcurve.y_polynomial(d),
            lambda y, p=path + ("y_polynomial",): (
                "not identically zero" if not y.is_zero()
                else _matches(expected, p, digest(y.to_json()))
            ),
            expect=path + ("y_polynomial",),
        ))
        ops.append(Op(
            f"x_laguerre({d})",
            lambda d=d: qcurve.x_partition(d) == qcurve.x_laguerre(d),
            _is_true,
        ))
        ops.append(Op(
            f"xd_pole_report({d})",
            lambda d=d: qcurve.xd_pole_report(d),
            lambda r, p=path + ("pole_report",): _matches(expected, p, pole_report_json(r)),
            expect=path + ("pole_report",),
        ))
    ops[0].cold = True
    return ops


# ---------------------------------------------------------------------------
# qce_chain
# ---------------------------------------------------------------------------


def qce_chain(rng: random.Random, expected: dict) -> list[Op]:
    def links(report) -> str | None:
        if report.first_failure is not None:
            return f"first failure {report.first_failure}"
        return _matches(expected, ("qce", "links"), dict(report.links))

    ops = [
        Op("qce_verification(10)", lambda: wavefunction.qce_verification(10), links,
           expect=("qce", "links")),
        Op("semiclassical_check()", lambda: wavefunction.semiclassical_check(), _is_true),
        Op("toda_specialization_check(8,4)",
           lambda: wavefunction.toda_specialization_check(8, 4), _is_true),
        # the five blocks together, as `p1qc verify --suite theta` runs them
        Op("theta_resummation_check(blocks,6)",
           lambda: [wavefunction.theta_resummation_check(g, n, d, 6)
                    for g, n, d in RESUMMATION_BLOCKS],
           lambda verdicts: None if all(v is True for v in verdicts) else f"verdicts {verdicts}"),
    ]
    rng.shuffle(ops)
    for op in ops:
        op.cold = True  # each check is its own invocation
    return ops


# ---------------------------------------------------------------------------
# gw_queries
# ---------------------------------------------------------------------------


def gw_stream(rng: random.Random) -> list[tuple]:
    """Every pass computes the same queries: one from the middle of each
    run of GW_STRIDE neighbours in :func:`query_space`, so the work of a
    pass does not depend on the seed.  The seed orders them and inserts
    replays of queries that already ran."""
    fresh = query_space()[GW_STRIDE // 2 :: GW_STRIDE]
    rng.shuffle(fresh)
    repeats = round(GW_REPEATS * len(fresh))
    stream: list[tuple] = []
    pending = list(fresh)
    while pending or repeats:
        if stream and repeats and rng.random() < repeats / (len(pending) + repeats):
            stream.append(rng.choice(stream))
            repeats -= 1
        else:
            stream.append(pending.pop())
    return stream


def _run_gw(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def gw_queries(rng: random.Random, expected: dict) -> list[Op]:
    computed: dict[str, str] = {}  # query key -> stdout when first computed
    seen: set[str] = set()
    ops = []
    for query in gw_stream(rng):
        g, n, d, b = query
        key = gw_key(query)
        replay = key in seen
        seen.add(key)
        argv = ["gw", "--g", str(g), "--n", str(n), "--d", str(d),
                "--b", ",".join(map(str, b))]

        def check(result, key=key, replay=replay, query=query) -> str | None:
            code, text = result
            if code != 0:
                return f"exit code {code}"
            if replay:
                if text != computed.get(key):
                    return "replayed stdout differs from the computed stdout"
            else:
                computed[key] = text
            doc = json.loads(text)
            g, n, d, b = query
            if doc["command"] != "gw" or doc["status"] != "value":
                return f"unexpected document {doc!r}"
            if [doc["parameters"][k] for k in "gnd"] + [doc["parameters"]["b"]] != [g, n, d, list(b)]:
                return f"parameters echo {doc['parameters']!r}"
            if "warning" in doc["payload"]:
                return f"warning {doc['payload']['warning']!r}"
            return _matches(expected, ("gw", key), doc["payload"]["value"])

        ops.append(Op(f"gw {key}", lambda argv=argv: _run_gw(argv), check,
                      cold=True, expect=("gw", key)))
    return ops


# ---------------------------------------------------------------------------
# residue_forms
# ---------------------------------------------------------------------------


def _sample_point(rng: random.Random, n: int) -> list[Fraction]:
    """n rational points away from 0 and the branch points +-1."""
    point = []
    while len(point) < n:
        p, q = rng.randint(1, 12), rng.randint(1, 12)
        if p != q:
            point.append(Fraction(rng.choice((-1, 1)) * p, q))
    return point


def _residue_battery(g: int, n: int) -> dict:
    prim = toprec.primitive_fgn(g, n)
    return {
        "toprec_wgn": toprec.toprec_wgn(g, n),
        "origin_vanishes": prim.origin_vanishes(),
        "derivative_recovery_check": prim.derivative_recovery_check(),
        "fgn_x_expansion": toprec.fgn_x_expansion(g, n, RESIDUE_ORDER, verify=False),
        "ns_expansion_check": toprec.ns_expansion_check(g, n, NS_ORDER),
    }


def residue_forms(rng: random.Random, expected: dict) -> list[Op]:
    """One operation per stable pair's battery, then one per seeded sample
    point for ``odd_under_involution``, the points of all pairs in seeded
    order.  The points keep the median inside a block of like operations,
    and p95 between the two costliest batteries; mixing the pairs' points
    keeps one burst of machine load from slowing a whole block."""
    ops: list[Op] = []
    points: list[Op] = []
    for g, n in RESIDUE_PAIRS:
        path = ("residue", f"{g}_{n}")

        def check(out: dict, path=path) -> str | None:
            for verdict in ("origin_vanishes", "derivative_recovery_check", "ns_expansion_check"):
                if out[verdict] is not True:
                    return f"{verdict}: {out[verdict]!r}"
            return (
                _matches(expected, path + ("toprec_wgn",), digest(form_json(out["toprec_wgn"])))
                or _matches(expected, path + ("fgn_x_expansion",),
                            digest(out["fgn_x_expansion"].to_json()))
            )

        ops.append(Op(f"residue battery ({g},{n})",
                      lambda g=g, n=n: _residue_battery(g, n),
                      check, expect=path + ("toprec_wgn",)))
        for _ in range(RESIDUE_POINTS):
            point = _sample_point(rng, n)
            points.append(Op(
                f"odd_under_involution({g},{n}) at {[str(p) for p in point]}",
                lambda g=g, n=n, p=point: toprec.primitive_fgn(g, n).odd_under_involution([p]),
                _is_true,
            ))
    rng.shuffle(points)
    ops[0].cold = True
    return ops + points


BUILDERS = {
    "xd_tower": xd_tower,
    "qce_chain": qce_chain,
    "gw_queries": gw_queries,
    "residue_forms": residue_forms,
}


def build_pass(workload: str, seed: int, pass_index: int, expected: dict) -> list[Op]:
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    return BUILDERS[workload](rng, expected)

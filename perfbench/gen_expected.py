"""Regenerate ``expected.json``, the reference outputs the benchmark checks.

    python3 perfbench/gen_expected.py

Run it from the root of a checkout of the commit whose outputs are the
reference; the commit is recorded in the file.  It stores the value of
every query in the gw_queries space (so any seed can be checked), digests
of the x_partition / y_polynomial wire forms and of the toprec_wgn pole
data and fgn_x_expansion series, the xd pole reports and the qce link
verdicts.  The values come from the library functions directly, not from
the code paths the benchmark times.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from p1qcurve import qcurve, toprec, wavefunction, wedge  # noqa: E402
from p1qcurve.exactcore import rational_to_json  # noqa: E402

import workloads as w  # noqa: E402
from run import git_commit  # noqa: E402


def main() -> int:
    xd = {}
    for d in range(1, w.XD_TOP + 1):
        xd[str(d)] = {
            "x_partition": w.digest(qcurve.x_partition(d).to_json()),
            "y_polynomial": w.digest(qcurve.y_polynomial(d).to_json()),
            "pole_report": w.pole_report_json(qcurve.xd_pole_report(d)),
        }
    residue = {}
    for g, n in w.RESIDUE_PAIRS:
        residue[f"{g}_{n}"] = {
            "toprec_wgn": w.digest(w.form_json(toprec.toprec_wgn(g, n))),
            "fgn_x_expansion": w.digest(
                toprec.fgn_x_expansion(g, n, w.RESIDUE_ORDER, verify=False).to_json()
            ),
        }
    gw = {
        w.gw_key(q): rational_to_json(wedge.stationary_invariant(*q))
        for q in w.query_space()
    }
    expected = {
        "commit": git_commit(ROOT),
        "xd": xd,
        "qce": {"links": dict(wavefunction.qce_verification(10).links)},
        "residue": residue,
        "gw": gw,
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(gw)} gw values, {len(xd)} degrees, {len(residue)} residue pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

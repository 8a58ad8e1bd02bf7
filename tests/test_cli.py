"""End-to-end tests of the command-line front end: wiring, output canon,
exit codes, budget capping, and the replay cache."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import p1qcurve
from p1qcurve import cli
from p1qcurve.cli import main
from p1qcurve.toprec import s_matrix
from p1qcurve.exactcore import rational_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# xd
# ---------------------------------------------------------------------------


def test_xd_degree_zero_pretty(capsys):
    code, out, _ = run(capsys, "xd", "--d", "0", "--format", "pretty")
    assert code == 0
    assert out.strip() == "partition: 1"


def test_xd_degree_one_json(capsys):
    code, doc, _ = run_json(capsys, "xd", "--d", "1")
    assert code == 0
    assert doc["status"] == "value"
    assert doc["payload"]["partition"] == {"num": ["0", "1"], "den": ["1", "1"]}


def test_xd_both_forms_agree(capsys):
    code, doc, _ = run_json(capsys, "xd", "--d", "5", "--form", "both")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["payload"]["equal"] is True
    assert doc["payload"]["partition"] == doc["payload"]["laguerre"]


def test_xd_csv_shape(capsys):
    code, out, _ = run(capsys, "xd", "--d", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,part,index,value"
    assert "1,partition.num,1,1" in lines


def test_xd_negative_degree_is_usage_error(capsys):
    code, out, err = run(capsys, "xd", "--d", "-1")
    assert code == 2
    assert out == ""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_empty_range_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "recursion", "--max", "0")
    assert code == 2
    assert "empty range" in err


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_verify_recursion(capsys):
    code, doc, _ = run_json(capsys, "verify", "--suite", "recursion", "--max", "6")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["parameters"]["budget_used"] == {"recursion": 6}


def test_verify_ydzero(capsys):
    code, doc, _ = run_json(capsys, "verify", "--suite", "ydzero", "--max", "12")
    assert code == 0
    assert doc["status"] == "pass"


def test_verify_han(capsys):
    code, doc, _ = run_json(capsys, "verify", "--suite", "han", "--max", "8")
    assert code == 0
    assert doc["status"] == "pass"


def test_verify_qce_reports_links(capsys):
    code, doc, _ = run_json(capsys, "verify", "--suite", "qce", "--max", "3")
    assert code == 0
    assert doc["payload"]["links"] == {
        "recursion": True, "conjugation": True, "degree-graded": True
    }


def test_verify_budget_caps_range(capsys):
    code, doc, _ = run_json(capsys, "--budget", "2", "verify", "--suite", "recursion")
    assert code == 0
    assert doc["parameters"]["max"] == 2


def test_verify_all_max_caps_every_suite(capsys):
    code, doc, _ = run_json(capsys, "verify", "--suite", "all", "--max", "3")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["parameters"]["max"] == 3
    assert doc["parameters"]["budget_used"] == {
        "recursion": 3, "ydzero": 3, "han": 3, "toda": 3,
        "theta": 3, "ns": 3, "qce": 3,
    }
    assert set(doc["payload"]["suites"].values()) == {"pass"}


def test_verify_all_empty_range_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "all", "--max", "0")
    assert code == 2
    assert "empty range" in err


# ---------------------------------------------------------------------------
# gw
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "g,n,d,b,value",
    [
        (0, 1, 1, "0", "1"),
        (0, 3, 1, "0,0,0", "1"),
        (0, 1, 0, "-2", "1"),
        (1, 1, 1, "2", "1/24"),
    ],
)
def test_gw_values(capsys, g, n, d, b, value):
    code, doc, _ = run_json(
        capsys, "gw", "--g", str(g), "--n", str(n), "--d", str(d), "--b", b
    )
    assert code == 0
    assert doc["payload"]["value"] == value
    assert "warning" not in doc["payload"]


def test_gw_dimension_violation_warns_but_exits_zero(capsys):
    code, doc, _ = run_json(capsys, "gw", "--g", "1", "--n", "1", "--d", "1", "--b", "5")
    assert code == 0
    assert doc["payload"]["value"] == "0"
    assert doc["payload"]["warning"] == "dimension-violation"


def test_gw_arity_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "gw", "--g", "0", "--n", "2", "--d", "1", "--b", "0")
    assert code == 2


def test_gw_deep_negative_exponent_is_usage_error(capsys):
    code, _, err = run(capsys, "gw", "--g", "0", "--n", "1", "--d", "0", "--b", "-3")
    assert code == 2


def test_gw_budget_exceeded_exits_one_with_required_order(capsys):
    code, out, err = run(
        capsys, "--budget", "2", "gw", "--g", "2", "--n", "1", "--d", "2", "--b", "6"
    )
    assert code == 1
    assert out == ""
    assert "requires expansion order 7" in err


# ---------------------------------------------------------------------------
# wgn
# ---------------------------------------------------------------------------


def test_wgn_over_budget_pair_exits_one(capsys):
    code, out, err = run(capsys, "wgn", "--g", "5", "--n", "5")
    assert code == 1
    assert "exceeds the configured bound" in err


def test_wgn_unstable_pair_is_usage_error(capsys):
    code, _, err = run(capsys, "wgn", "--g", "0", "--n", "1")
    assert code == 2


def test_wgn_form_output(capsys):
    code, doc, _ = run_json(capsys, "wgn", "--g", "0", "--n", "3", "--emit", "form")
    assert code == 0
    terms = doc["payload"]["terms"]
    assert {"coeff": "-1/2", "poles": [["1", 2], ["1", 2], ["1", 2]]} in terms
    assert {"coeff": "-1/2", "poles": [["-1", 2], ["-1", 2], ["-1", 2]]} in terms
    assert doc["payload"]["sample"]["value"] == "-101/7200"


def test_wgn_expansion_matches_weighted_invariants(capsys):
    code, doc, _ = run_json(
        capsys, "wgn", "--g", "0", "--n", "3", "--emit", "expansion", "--order", "4"
    )
    assert code == 0
    terms = doc["payload"]["expansion"]["terms"]
    # (b+1)!-weighted invariants: b=(0,0,0) -> 1; b=(0,1,1) -> 1!2!2! = 4
    assert terms["2,2,2"] == "1"
    assert terms["2,3,3"] == "4"


def test_wgn_budget_caps_order(capsys):
    code, doc, _ = run_json(
        capsys, "--budget", "3", "wgn", "--g", "1", "--n", "1",
        "--emit", "expansion", "--order", "9",
    )
    assert code == 0
    assert doc["parameters"]["order"] == 3


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_smatrix_matches_library(capsys):
    code, doc, _ = run_json(capsys, "table", "--what", "smatrix", "--range", "0..4")
    assert code == 0
    rows = doc["payload"]["rows"]
    assert [row["k"] for row in rows] == [0, 1, 2, 3, 4]
    for row in rows:
        m = s_matrix(row["k"])
        want = [[rational_to_json(m.entry(r, c)) for c in (1, 2)] for r in (1, 2)]
        assert row["entries"] == want
    # frozen anchors for the first three orders
    assert rows[0]["entries"] == [["1", "0"], ["0", "1"]]
    assert rows[1]["entries"] == [["0", "0"], ["1", "0"]]
    assert rows[2]["entries"] == [["-1", "0"], ["0", "1"]]


def test_table_bad_range_is_usage_error(capsys):
    for bad in ("4..0", "x..y", "3", "1..2..3"):
        code, _, err = run(capsys, "table", "--what", "xd", "--range", bad)
        assert code == 2, bad


def test_table_invariants_row(capsys):
    code, doc, _ = run_json(capsys, "table", "--what", "invariants", "--range", "1..1")
    assert code == 0
    rows = doc["payload"]["rows"]
    assert {"g": 0, "n": 1, "d": 1, "b": [0], "value": "1"} in rows


def test_table_xd_csv(capsys):
    code, out, _ = run(capsys, "table", "--what", "xd", "--range", "0..1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,part,index,value"
    assert "0,num,0,1" in lines
    assert "1,num,1,1" in lines


# ---------------------------------------------------------------------------
# fgn / psi-check / toda-check
# ---------------------------------------------------------------------------


def test_fgn_expansion(capsys):
    code, doc, _ = run_json(capsys, "fgn", "--g", "1", "--n", "1", "--order", "5")
    assert code == 0
    assert doc["payload"]["expansion"]["terms"]["1"] == "1/24"


def test_psi_check_passes(capsys):
    code, doc, _ = run_json(capsys, "psi-check", "--dmax", "2")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["payload"]["semiclassical"] is True
    assert all(doc["payload"]["resummation"].values())
    assert doc["payload"]["links"]["degree-graded"] is True


def test_toda_check_passes(capsys):
    code, doc, _ = run_json(capsys, "toda-check", "--order", "6", "--dmax", "2")
    assert code == 0
    assert doc["status"] == "pass"


# ---------------------------------------------------------------------------
# Output canon, cache, wall time
# ---------------------------------------------------------------------------


def test_byte_identical_reruns(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "recursion", "--max", "4")
    _, out2, _ = run(capsys, "verify", "--suite", "recursion", "--max", "4")
    assert out1 == out2


def test_wall_time_on_stderr_only(capsys):
    _, out, err = run(capsys, "xd", "--d", "2")
    assert "wall-time" in err
    assert "wall-time" not in out
    assert "time" not in json.loads(out)  # no timing keys in the canonical doc


def test_cache_roundtrip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("P1QC_CACHE_DIR", str(tmp_path))
    code1, out1, _ = run(capsys, "xd", "--d", "4", "--form", "both")
    assert code1 == 0
    files = list(tmp_path.glob("xd-*.json"))
    assert len(files) == 1
    code2, out2, _ = run(capsys, "xd", "--d", "4", "--form", "both")
    assert code2 == 0
    assert out1 == out2


def test_cache_truncated_entry_is_a_miss(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("P1QC_CACHE_DIR", str(tmp_path))
    _, out1, _ = run(capsys, "gw", "--g", "0", "--n", "1", "--d", "1", "--b", "0")
    (entry,) = tmp_path.glob("gw-*.json")
    entry.write_text(entry.read_text()[:20])
    code, out2, err = run(capsys, "gw", "--g", "0", "--n", "1", "--d", "1", "--b", "0")
    assert code == 0
    assert out2 == out1
    assert "invalid cache entry" in err
    assert entry.read_text() + "\n" == out1  # the bad entry was rewritten


def test_cache_entry_for_other_parameters_is_a_miss(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("P1QC_CACHE_DIR", str(tmp_path))
    _, out1, _ = run(capsys, "gw", "--g", "0", "--n", "1", "--d", "1", "--b", "0")
    (entry,) = tmp_path.glob("gw-*.json")
    forged = {"command": "gw", "parameters": {}, "status": "value",
              "payload": {"value": "999"}}
    entry.write_text(json.dumps(forged))
    code, out2, err = run(capsys, "gw", "--g", "0", "--n", "1", "--d", "1", "--b", "0")
    assert code == 0
    assert out2 == out1
    assert "999" not in out2
    assert "invalid cache entry" in err


def test_cache_entry_from_another_version_is_a_miss(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("P1QC_CACHE_DIR", str(tmp_path))
    argv = ("gw", "--g", "0", "--n", "1", "--d", "1", "--b", "0")
    monkeypatch.setattr(cli, "__version__", "0.0.0")
    _, out_old, _ = run(capsys, *argv)
    (old_entry,) = tmp_path.glob("gw-*.json")
    forged = json.loads(old_entry.read_text())
    forged["payload"]["value"] = "999"
    old_entry.write_text(json.dumps(forged))
    assert '"999"' in run(capsys, *argv)[1]  # still replayed by its own version

    monkeypatch.setattr(cli, "__version__", p1qcurve.__version__)
    code, out1, err = run(capsys, *argv)
    assert code == 0
    assert "999" not in out1
    assert out1 == out_old
    (entry,) = set(tmp_path.glob("gw-*.json")) - {old_entry}
    assert entry.read_text() + "\n" == out1

    def no_compute(*args, **kwargs):
        raise AssertionError("a replay must not compute")

    monkeypatch.setattr(cli, "stationary_invariant", no_compute)
    code, out2, err = run(capsys, *argv)
    assert code == 0
    assert out2 == out1
    assert "invalid cache entry" not in err


def test_concurrent_stores_of_one_entry(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("P1QC_CACHE_DIR", str(tmp_path))
    _, out1, _ = run(capsys, "gw", "--g", "0", "--n", "1", "--d", "1", "--b", "0")
    (entry,) = tmp_path.glob("gw-*.json")
    script = ("import sys\n"
              "from p1qcurve.cli import _cache_load, _cache_store\n"
              "result = _cache_load(sys.argv[1])\n"
              "for _ in range(300):\n"
              "    _cache_store(sys.argv[1], result)\n")
    src = str(Path(p1qcurve.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    writers = [subprocess.Popen([sys.executable, "-c", script, str(entry)], env=env,
                                stderr=subprocess.PIPE, text=True) for _ in range(2)]
    for proc in writers:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    assert sorted(p.name for p in tmp_path.iterdir()) == [entry.name]
    code, out2, err = run(capsys, "gw", "--g", "0", "--n", "1", "--d", "1", "--b", "0")
    assert code == 0
    assert out2 == out1
    assert "invalid cache entry" not in err


def test_bad_budget_is_usage_error(capsys):
    code, _, err = run(capsys, "--budget", "0", "xd", "--d", "1")
    assert code == 2


def test_unknown_flag_exits_two(capsys):
    code = main(["xd", "--d", "1", "--frobnicate"])
    capsys.readouterr()
    assert code == 2

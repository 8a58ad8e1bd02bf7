"""End-to-end tests of the command-line front end: wiring, output canon,
exit codes, budget capping, and the replay cache."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import p1qcurve
from p1qcurve import cli, qcurve, toprec, wavefunction, wedge
from p1qcurve.cli import main
from p1qcurve.toprec import s_matrix
from p1qcurve.exactcore import ExactError, Polynomial, rational_to_json
from console_pins import CONSOLE_PINS, mismatches, stdout_digest


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


@pytest.mark.parametrize(
    "argv",
    [("2", "theta"), ("3", "theta"), ("4", "theta"), ("2", "all")],
    ids=lambda a: f"budget{a[0]}-{a[1]}",
)
def test_small_budget_verify_passes(capsys, argv):
    budget, suite = argv
    code, doc, _ = run_json(capsys, "--budget", budget, "verify", "--suite", suite)
    assert code == 0
    assert doc["status"] == "pass"


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


@pytest.mark.parametrize("suite", ["toda", "all"])
def test_verify_refuses_a_budget_below_the_toda_order_before_computing(capsys, monkeypatch,
                                                                       suite):
    def no_compute(*args):
        raise AssertionError("a refused run must not compute")

    for name in cli._SUITES:
        monkeypatch.setitem(cli._SUITES, name, (cli._SUITES[name][0], no_compute))
    code, out, err = run(capsys, "--budget", "1", "verify", "--suite", suite)
    assert (code, out) == (2, "")
    assert "--budget 1" in err and "least order, 2" in err


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


# s_matrix(1603) has entries of more than 4300 digits, the default limit of
# int-to-str conversion (Python 3.10.7 on)
DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                 reason="no int-to-str digit limit before Python 3.10.7")


@contextlib.contextmanager
def _digits_unlimited():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@DIGIT_LIMIT
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_smatrix_past_the_digit_limit(capsys, fmt):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "table", "--what", "smatrix", "--range", "1603..1603",
                         "--format", fmt)
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    m = s_matrix(1603)
    with _digits_unlimited():
        assert max(len(str(abs(m.entry(r, c)))) for r in (1, 2) for c in (1, 2)) > limit
        if fmt == "json":
            entries = json.loads(out)["payload"]["rows"][0]["entries"]
        else:
            entries = [[None] * 2 for _ in range(2)]
            for line in out.strip().splitlines()[1:]:
                k, r, c, value = line.split(",")
                assert k == "1603"
                entries[int(r) - 1][int(c) - 1] = value
        assert entries == [[str(m.entry(r, c)) for c in (1, 2)] for r in (1, 2)]


@DIGIT_LIMIT
def test_argv_keeps_the_digit_limit(capsys):
    code, out, err = run(capsys, "xd", "--d", "9" * 5000)
    assert code == 2 and out == ""
    assert "invalid int value" in err


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

    monkeypatch.setattr("p1qcurve.wedge.stationary_invariant", no_compute)
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


@pytest.mark.parametrize("argv", [
    ("xd", "--d", "2"),
    ("gw", "--g", "0", "--n", "1", "--d", "1", "--b", "0"),
])
def test_a_failed_cache_store_is_noted_and_the_document_printed(capsys, tmp_path, monkeypatch,
                                                                 argv):
    monkeypatch.delenv("P1QC_CACHE_DIR", raising=False)
    expected = run(capsys, *argv)[:2]
    # a directory under the entry's name makes the store's rename fail
    doc = json.loads(expected[1])
    blocker = tmp_path / cli._cache_name(doc["command"], doc["parameters"])
    blocker.mkdir()
    monkeypatch.setenv("P1QC_CACHE_DIR", str(tmp_path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == expected
    assert f"note: could not store cache entry {blocker}" in err
    assert [p.name for p in tmp_path.iterdir()] == [blocker.name]  # no temp file is left


def _set_in(doc: dict, path: tuple, value) -> dict:
    """``doc`` with the entry at ``path`` in its payload set to ``value``."""
    *head, last = path
    node = doc["payload"]
    for key in head:
        node = node[key]
    node[last] = value
    return doc


_XD = ("xd", "--d", "3")
_SMATRIX = ("table", "--what", "smatrix", "--range", "0..1")
_FORMATS = {"xd": ("json", "csv", "pretty"), "table": ("json", "csv")}

# hand edits of a genuine entry: (the command whose entry is overwritten, the
# edit, the formats it breaks).  A structurally bad entry breaks every format;
# a well-formed forged value breaks only the renderer that cannot read it.
_HOSTILE = {
    "status-5": (_XD, lambda doc: {**doc, "status": 5}, _FORMATS["xd"]),
    "status-bogus": (_XD, lambda doc: {**doc, "status": "bogus"}, _FORMATS["xd"]),
    "payload-list": (_XD, lambda doc: {**doc, "payload": []}, _FORMATS["xd"]),
    "payload-str": (_XD, lambda doc: {**doc, "payload": "x"}, _FORMATS["xd"]),
    "extra-field": (_SMATRIX, lambda doc: {**doc, "time": 0.5}, _FORMATS["table"]),
    "deep-nesting": (_SMATRIX, lambda doc: "[" * 100_000, _FORMATS["table"]),
    "no-pretty": (_XD, lambda doc: {**doc, "payload": {k: v for k, v in doc["payload"].items()
                                                         if k != "pretty"}}, ("pretty",)),
    "num-int": (_XD, lambda doc: _set_in(doc, ("partition", "num"), 3), ("csv",)),
    "short-entries": (_SMATRIX, lambda doc: _set_in(doc, ("rows", 0, "entries"), [["1"]]),
                      ("csv",)),
}


def _hostile_cases(breaking: bool) -> list:
    return [pytest.param(name, fmt, id=f"{name}-{fmt}")
            for name, (argv, _, breaks) in _HOSTILE.items()
            for fmt in _FORMATS[argv[0]] if (fmt in breaks) == breaking]


def _replay_forged(capsys, tmp_path, monkeypatch, name, fmt):
    """Run the case uncached, then over its forged entry; return the uncached
    (code, stdout), the replay's (code, stdout, stderr), the genuine entry
    text, the forged document and the entry's path."""
    base, edit, _ = _HOSTILE[name]
    argv = (*base, "--format", fmt)
    monkeypatch.delenv("P1QC_CACHE_DIR", raising=False)
    uncached = run(capsys, *argv)[:2]
    monkeypatch.setenv("P1QC_CACHE_DIR", str(tmp_path))
    run(capsys, *base)
    (entry,) = tmp_path.glob("*.json")
    genuine = entry.read_text()
    forged = edit(json.loads(genuine))
    entry.write_text(forged if isinstance(forged, str) else json.dumps(forged))
    return uncached, run(capsys, *argv), genuine, forged, entry


@pytest.mark.parametrize("name, fmt", _hostile_cases(breaking=True))
def test_hostile_cache_entry_is_a_miss(capsys, tmp_path, monkeypatch, name, fmt):
    uncached, (code, out, err), genuine, _, entry = _replay_forged(
        capsys, tmp_path, monkeypatch, name, fmt)
    assert (code, out) == uncached
    assert "invalid cache entry" in err
    assert entry.read_text() == genuine  # recomputed and rewritten


@pytest.mark.parametrize("name, fmt", _hostile_cases(breaking=False))
def test_forged_cache_value_replays_where_it_renders(capsys, tmp_path, monkeypatch, name, fmt):
    """The cache checks structure, not values: a well-formed forged value
    replays in every format whose renderer can read it."""
    _, (code, out, err), _, forged, entry = _replay_forged(
        capsys, tmp_path, monkeypatch, name, fmt)
    assert code == 0
    assert "invalid cache entry" not in err
    assert json.loads(entry.read_text()) == forged
    if fmt == "json":
        assert json.loads(out) == forged


# the value commands whose genuine entries the property below overwrites
_GENUINE = [_XD, ("gw", "--g", "0", "--n", "1", "--d", "1", "--b", "0"), _SMATRIX]

_KEYS = st.sampled_from(["partition", "laguerre", "pretty", "equal", "num", "den", "rows",
                         "k", "entries", "d", "x", "g", "n", "b", "value"]) | st.text(max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def genuine_entries(tmp_path_factory):
    """(argv, entry file name, entry) of each _GENUINE command."""
    entries = []
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for argv in _GENUINE:
            root = tmp_path_factory.mktemp("genuine")
            patch.setenv("P1QC_CACHE_DIR", str(root))
            main(list(argv))
            (entry,) = root.iterdir()
            entries.append((argv, entry.name, json.loads(entry.read_text())))
    return entries


@settings(max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_entry_under_a_genuine_name_keeps_the_exit_contract(genuine_entries, tmp_path,
                                                                monkeypatch, data):
    argv, name, genuine = data.draw(st.sampled_from(genuine_entries))
    formats = _FORMATS.get(argv[0])  # gw takes no --format
    tail = ["--format", data.draw(st.sampled_from(formats))] if formats else []
    fields = data.draw(st.fixed_dictionaries({}, optional={
        "status": st.sampled_from(["value", "pass", "fail"]) | _JSON,
        "payload": st.dictionaries(_KEYS, _JSON, max_size=4) | _JSON,
    }))
    extra = data.draw(st.dictionaries(st.text(max_size=8), _JSON, max_size=2))
    doc = {**extra, "command": genuine["command"], "parameters": genuine["parameters"],
           **fields}
    monkeypatch.setenv("P1QC_CACHE_DIR", str(tmp_path))
    (tmp_path / name).write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, *tail])
    assert code in (0, 1, 2)


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "recursion", "--max", "3"),
    ("verify", "--suite", "all", "--max", "1"),
    ("psi-check", "--dmax", "2", "--order", "4"),
    ("toda-check", "--order", "4", "--dmax", "2"),
])
def test_verification_commands_never_touch_the_cache(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setenv("P1QC_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert list(tmp_path.iterdir()) == []
    # an entry under the name the run would key it by is not replayed either
    doc = json.loads(out)
    entry = tmp_path / cli._cache_name(doc["command"], doc["parameters"])
    entry.write_text(json.dumps({**doc, "status": "fail"}))
    assert run(capsys, *argv)[:2] == (code, out)


def test_module_entry_point_matches_in_process_main(capsys):
    src = str(Path(p1qcurve.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "P1QC_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "p1qcurve.cli", "xd", "--d", "2"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "wall-time" in proc.stderr
    code, out, _ = run(capsys, "xd", "--d", "2")
    assert (proc.returncode, proc.stdout) == (code, out)


def test_an_exact_error_from_a_computation_exits_two(capsys, monkeypatch):
    def refuse(*args):
        raise ExactError("boom")

    monkeypatch.delenv("P1QC_CACHE_DIR", raising=False)
    monkeypatch.setattr(wedge, "stationary_invariant", refuse)
    code, out, err = run(capsys, "gw", "--g", "0", "--n", "1", "--d", "1", "--b", "0")
    assert (code, out, err) == (2, "", "error: boom\n")


def test_any_other_exception_propagates_out_of_main(capsys, monkeypatch):
    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.delenv("P1QC_CACHE_DIR", raising=False)
    monkeypatch.setattr(wedge, "stationary_invariant", crash)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    with pytest.raises(RuntimeError, match="boom"):
        main(["gw", "--g", "0", "--n", "1", "--d", "1", "--b", "0"])
    assert capsys.readouterr().out == ""
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit  # restored on the way out


def test_bad_budget_is_usage_error(capsys):
    code, _, err = run(capsys, "--budget", "0", "xd", "--d", "1")
    assert code == 2


def test_unknown_flag_exits_two(capsys):
    code = main(["xd", "--d", "1", "--frobnicate"])
    capsys.readouterr()
    assert code == 2


_PARSER_SEQUENCE = (
    ["gw", "--g", "1", "--n", "2", "--d", "2", "--b", "1,3"],
    ["xd", "--d", "1", "--frobnicate"],
    ["--help"],
    ["--budget", "0", "xd", "--d", "1"],
    [],
    ["gw", "--g", "1", "--n", "2", "--d", "2", "--b", "1,3"],
)


def _without_wall_time(err: str) -> str:
    return "".join(line for line in err.splitlines(keepends=True)
                   if not line.startswith("wall-time:"))


def test_reused_parser_matches_a_fresh_parser(capsys, monkeypatch):
    """One parser serves a whole in-process sequence, usage errors and help
    included, with the same exit codes and bytes as a fresh parser per call."""
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    fresh = []
    for argv in _PARSER_SEQUENCE:
        monkeypatch.setattr(cli, "_parser", None)
        code, out, err = run(capsys, *argv)
        fresh.append((code, out, _without_wall_time(err)))
    assert [code for code, _, _ in fresh] == [0, 2, 0, 2, 2, 0]

    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    reused = []
    for argv in _PARSER_SEQUENCE:
        code, out, err = run(capsys, *argv)
        reused.append((code, out, _without_wall_time(err)))
    assert reused == fresh
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# Frozen stdout and exit codes
# ---------------------------------------------------------------------------


def _failing_qce(d_max, *args):
    links = (("recursion", True), ("conjugation", False), ("degree-graded", True))
    return p1qcurve.QceReport(d_max, links, "conjugation")


# Faults injected into the functions cli calls, patched as (module, name)
# in their defining modules, so that failing verdicts and their witnesses are
# pinned as well as passing ones.  wavefunction is imported above, before any
# fault is patched, so the qcurve checks it binds at import are the real ones.
# The module partitions is read from sys.modules: the package attribute of
# that name is the exported function.
_QC, _WF, _PT = qcurve, wavefunction, importlib.import_module("p1qcurve.partitions")
_FAULTS = {
    "recursion": {(_QC, "verify_xd_recursion"): lambda d: d != 1},
    "specialization": {(_WF, "toda_specialization_check"): lambda order, d_max: False},
    "quadratic": {(_WF, "toda_specialization_check"): lambda order, d_max: False,
                  (_QC, "toda_quadratic_check"):
                      lambda d, variant: (d, variant) != (1, "one-level")},
    "semiclassical": {(_WF, "semiclassical_check"): lambda: False},
    "qce": {(_WF, "qce_verification"): _failing_qce},
    "recursion-and-qce": {(_QC, "verify_xd_recursion"): lambda d: d != 1,
                          (_WF, "qce_verification"): _failing_qce},
    "laguerre": {(_QC, "x_laguerre"): lambda d: qcurve.x_partition(d + 1)},
    "ydzero": {(_QC, "y_polynomial"): lambda d: Polynomial([int(d == 2)])},
    "summation": {(_PT, "summation_corollary_check"): lambda d: d != 2},
    "hook-refinement": {(_PT, "summation_corollary_check"): lambda d: True,
                        (_PT, "hook_refinement_check"): lambda mu: mu != (2, 1)},
    "pole-primitive": {(toprec, "theta_expansion_check"): lambda i, d, order: (i, d) != (2, 1)},
    "resummation": {(_WF, "theta_resummation_check"):
                        lambda g, n, d, order: (g, n, d) != (0, 2, 1)},
    "ns": {(toprec, "ns_expansion_check"): lambda g, n, order: (g, n) != (1, 2)},
}

# (argv, fault, sha256 of the exit code and stdout); see _golden_digest
_GOLDEN = [
    ("xd --d 3", None, "5551cb01caead67a"),
    ("xd --d 3 --format csv", None, "5e72551061b29ba5"),
    ("xd --d 3 --format pretty", None, "4e639259648d323a"),
    ("xd --d 0 --format pretty", None, "4d9d60952d0f11de"),
    ("xd --d 3 --form laguerre", None, "f53d05fba3971f07"),
    ("xd --d 3 --form laguerre --format pretty", None, "b6d059c34999c695"),
    ("xd --d 3 --form both", None, "f91e5376475d118f"),
    ("xd --d 3 --form both --format csv", None, "f20cac5415155e9d"),
    ("xd --d 3 --form both --format pretty", None, "24a5c8ff5d6f3edc"),
    ("xd --d 3 --form both", "laguerre", "5bbf58a8c4aca972"),
    ("xd --d 3 --form both --format csv", "laguerre", "9afb32bb47e71995"),
    ("--budget 2 xd --d 3", None, "5551cb01caead67a"),
    ("xd --d -1", None, "53c234e5e8472b6a"),
    ("xd --d 1 --format yaml", None, "53c234e5e8472b6a"),
    ("xd --d 1 --frobnicate", None, "53c234e5e8472b6a"),
    ("--budget 0 xd --d 1", None, "53c234e5e8472b6a"),
    ("nosuch", None, "53c234e5e8472b6a"),
    ("verify --suite recursion --max 3", None, "c66ffc43f865007f"),
    ("verify --suite ydzero --max 3", None, "b2d1030b2a4356d7"),
    ("verify --suite han --max 3", None, "70b68d628079504f"),
    ("verify --suite toda --max 3", None, "f87ad9d96a377fdc"),
    ("verify --suite theta --max 1", None, "8bcad890993cc509"),
    ("verify --suite ns --max 3", None, "723f14846edd7f5b"),
    ("verify --suite qce --max 3", None, "78c00a1e76b88051"),
    ("verify --suite all --max 1", None, "1871cfc179c31890"),
    ("--budget 4 verify --suite all --max 2", None, "715b07993a71f371"),
    ("--budget 2 verify --suite recursion", None, "8a5d0442d355df80"),
    ("--budget 3 verify --suite toda --max 5", None, "f87ad9d96a377fdc"),
    ("--budget 1 verify --suite toda", None, "53c234e5e8472b6a"),
    ("--budget 1 verify --suite all", None, "53c234e5e8472b6a"),
    ("verify --suite recursion --max 3", "recursion", "40bcb13d6b5737ae"),
    ("verify --suite all --max 1", "recursion", "967194499612c820"),
    ("verify --suite all --max 1", "recursion-and-qce", "378a1bd3a6cda0fc"),
    ("verify --suite toda --max 3", "specialization", "207aaeaa06053784"),
    ("verify --suite toda --max 3", "quadratic", "fd19387ec9b67054"),
    ("verify --suite qce --max 3", "qce", "08111f8f74cc80da"),
    ("verify --suite ydzero --max 3", "ydzero", "cbc9b0a9b89676c8"),
    ("verify --suite han --max 3", "summation", "ed34410bdc0ec175"),
    ("verify --suite han --max 3", "hook-refinement", "a2259cb96ad17bae"),
    ("verify --suite theta --max 1", "pole-primitive", "e9f96d08d4f2ef46"),
    ("verify --suite theta --max 1", "resummation", "6367411d0d5f0551"),
    ("verify --suite ns --max 3", "ns", "66e09f17fb01d257"),
    ("verify --suite recursion --max 0", None, "53c234e5e8472b6a"),
    ("verify --suite all --max 0", None, "53c234e5e8472b6a"),
    ("verify --suite nonsense", None, "53c234e5e8472b6a"),
    ("gw --g 0 --n 1 --d 1 --b 0", None, "9d7df60df9a2d08f"),
    ("gw --g 1 --n 1 --d 1 --b 2", None, "d849c39c2edcb8f3"),
    ("gw --g 0 --n 3 --d 1 --b 0,0,0", None, "60c0c8a63ae4a9db"),
    ("gw --g 0 --n 1 --d 0 --b -2", None, "e6556f0e038d1010"),
    ("gw --g 1 --n 1 --d 1 --b 5", None, "85cd3ffcb995220e"),
    ("--budget 7 gw --g 2 --n 1 --d 2 --b 6", None, "8e72f95dda982214"),
    ("--budget 2 gw --g 2 --n 1 --d 2 --b 6", None, "4355a46b19d348dc"),
    ("gw --g 0 --n 2 --d 1 --b 0", None, "53c234e5e8472b6a"),
    ("gw --g 0 --n 1 --d 0 --b -3", None, "53c234e5e8472b6a"),
    ("gw --g 0 --n 1 --d 0 --b x", None, "53c234e5e8472b6a"),
    ("gw --g -1 --n 1 --d 0 --b 0", None, "53c234e5e8472b6a"),
    ("wgn --g 0 --n 3", None, "d550e54a06628304"),
    ("wgn --g 1 --n 1", None, "defe23aeb354fc53"),
    ("wgn --g 0 --n 3 --emit expansion --order 4", None, "1914e4d82aed84bb"),
    ("--budget 3 wgn --g 1 --n 1 --emit expansion --order 9", None, "bed8c0dbf165219f"),
    ("--budget 3 wgn --g 1 --n 1", None, "0e292df4d8a4cca2"),
    ("wgn --g 5 --n 5", None, "4355a46b19d348dc"),
    ("wgn --g 0 --n 1", None, "53c234e5e8472b6a"),
    ("wgn --g -1 --n 1", None, "53c234e5e8472b6a"),
    ("wgn --g 0 --n 3 --order 0", None, "53c234e5e8472b6a"),
    ("table --what smatrix --range 0..4", None, "3828555ffc8f062d"),
    ("table --what smatrix --range 0..4 --format csv", None, "0b06cec84b72ca9e"),
    ("table --what xd --range 0..3", None, "c6ff93f9342878a7"),
    ("table --what xd --range 0..3 --format csv", None, "bdd4d958ce7ce1c5"),
    ("table --what invariants --range 0..2", None, "2afd88e2efdefcf9"),
    ("table --what invariants --range 0..2 --format csv", None, "5514beca5080396e"),
    ("table --what xd --range 4..0", None, "53c234e5e8472b6a"),
    ("table --what xd --range 1..2..3", None, "53c234e5e8472b6a"),
    ("fgn --g 1 --n 1 --order 4", None, "01d9fa126df7358e"),
    ("fgn --g 0 --n 3 --order 4", None, "eac8e338c2965d49"),
    ("--budget 2 fgn --g 0 --n 3", None, "8e82311bbf34d4d0"),
    ("fgn --g 0 --n 2", None, "53c234e5e8472b6a"),
    ("fgn --g 3 --n 1", None, "4355a46b19d348dc"),
    ("fgn --g 1 --n 1 --order 0", None, "53c234e5e8472b6a"),
    ("psi-check --dmax 2 --order 4", None, "c923fff3cf304532"),
    ("--budget 2 psi-check", None, "2055106b69c45f54"),
    ("psi-check --dmax 2 --order 4", "semiclassical", "9d3c3613ea13463d"),
    ("psi-check --dmax 2 --order 4", "qce", "aee68143291d2367"),
    ("psi-check --dmax 0", None, "53c234e5e8472b6a"),
    ("toda-check --order 4 --dmax 2", None, "88c975d6fc9c69b2"),
    ("--budget 3 toda-check", None, "553efa4ea773f218"),
    ("toda-check --order 4 --dmax 2", "quadratic", "fadf7a7f2c3b772e"),
    ("toda-check --order 4 --dmax 2", "specialization", "8abdc98a7c575c00"),
    ("toda-check --order 1", None, "53c234e5e8472b6a"),
]

# sha256 of the sorted cache file names the matrix writes, under version "0.1.0"
_GOLDEN_CACHE_NAMES = "69332173875b1af8"


def _golden_digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]


def _golden_run(monkeypatch, argv: str, fault, cache_dir) -> str:
    """The digest of one run; ``cache_dir`` None runs without a cache."""
    with monkeypatch.context() as patch:
        if cache_dir is None:
            patch.delenv("P1QC_CACHE_DIR", raising=False)
        else:
            patch.setenv("P1QC_CACHE_DIR", str(cache_dir))
        for (module, name), replacement in _FAULTS.get(fault, {}).items():
            patch.setattr(module, name, replacement)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv.split())
    return _golden_digest(code, out.getvalue())


def _golden_outcomes(monkeypatch, root: Path) -> tuple[dict, list, str]:
    """Per case: the digests with no cache, a cold cache and a warm cache;
    then the cases whose three runs disagree, and the cache-names digest."""
    monkeypatch.setattr(cli, "__version__", "0.1.0")
    digests, unstable, names = {}, [], []
    for i, (argv, fault, _) in enumerate(_GOLDEN):
        cache_dir = root / str(i)
        cache_dir.mkdir()
        runs = [_golden_run(monkeypatch, argv, fault, dir_)
                for dir_ in (None, cache_dir, cache_dir)]
        if len(set(runs)) != 1:
            unstable.append((argv, fault, runs))
        digests[(argv, fault)] = runs[0]
        names += (p.name for p in cache_dir.iterdir())
    names_digest = hashlib.sha256("\n".join(sorted(names)).encode()).hexdigest()[:16]
    return digests, unstable, names_digest


def test_stdout_and_exit_codes_frozen(monkeypatch, tmp_path):
    digests, unstable, names_digest = _golden_outcomes(monkeypatch, tmp_path)
    assert unstable == []
    assert digests == {(argv, fault): digest for argv, fault, digest in _GOLDEN}
    assert names_digest == _GOLDEN_CACHE_NAMES


# ---------------------------------------------------------------------------
# The console script's stdout pins, in process
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, digest", CONSOLE_PINS, ids=[argv for argv, _ in CONSOLE_PINS])
def test_console_script_stdout_pins(monkeypatch, argv, digest):
    monkeypatch.delenv("P1QC_CACHE_DIR", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(argv.split())
    assert stdout_digest(out.getvalue().encode()) == digest


def test_console_pin_runner_names_a_mismatch(tmp_path, monkeypatch):
    """The script runner, through a ``p1qc`` shim on PATH: a matching pin
    passes and an altered digest is named with its argv."""
    shim = tmp_path / "p1qc"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m p1qcurve.cli "$@"\n')
    shim.chmod(0o755)
    src = str(Path(p1qcurve.__file__).parents[1])
    monkeypatch.setenv("PATH", os.pathsep.join([str(tmp_path), os.environ["PATH"]]))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    (argv, digest), (other, _) = CONSOLE_PINS[0], CONSOLE_PINS[6]
    found = mismatches([(argv, digest), (other, "0" * 16)])
    assert len(found) == 1 and found[0].startswith(f"p1qc {other}: ")

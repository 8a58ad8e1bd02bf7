"""The package runs without sympy, which only the tests use as an oracle."""

import os
import re
import subprocess
import sys
from pathlib import Path

import p1qcurve

SRC = Path(p1qcurve.__file__).parents[1]

WITHOUT_SYMPY = """
import sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
import p1qcurve
from p1qcurve.cli import main
from p1qcurve.toprec import theta_expansion_check
assert p1qcurve.xd_pole_report(6) == {-k: 1 for k in range(1, 7)}
assert theta_expansion_check(2, 3, 8)
assert main(["xd", "--d", "3"]) == 0
"""


def test_runs_with_sympy_blocked():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    env.pop("P1QC_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SYMPY], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_no_source_file_imports_sympy():
    pattern = re.compile(r"^\s*(import|from)\s+sympy\b", re.MULTILINE)
    sources = sorted((SRC / "p1qcurve").rglob("*.py"))
    assert sources
    assert [p.name for p in sources if pattern.search(p.read_text(encoding="utf-8"))] == []

"""The benchmark's trace hooks still find every package name they wrap.

``perfbench/worker.py`` wraps package functions and methods by name for
``perfbench/run.py --trace 1``.  A rename or deletion in ``src/`` fails here,
in a fresh interpreter so that a half-installed tracer cannot leak into
other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL_AND_UNINSTALL = """
import sys
sys.path.insert(0, sys.argv[1])
import worker
tracer = worker.install_tracing([])
patches = list(tracer._patches)
tracer.uninstall()
assert len(patches) > len(worker.SPANS) + len(worker.COUNTERS), len(patches)
assert all(getattr(space, attr) is original for space, attr, original in patches)
"""


def test_trace_hooks_install_and_uninstall():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL_AND_UNINSTALL, str(ROOT / "perfbench")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]

"""The package and the command line import a module only when it is used.

``import p1qcurve`` loads no module of the package, a ``p1qc`` run that
computes nothing (help, a usage error, a budget refusal, a replay) loads only
the cli, and each subcommand loads only the modules its computation calls.
Every check that reads ``sys.modules`` runs in a fresh interpreter, since
the test session has imported everything already.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import p1qcurve

SRC = Path(p1qcurve.__file__).parents[1]

LOADED = (
    "import sys\n"
    "def loaded():\n"
    "    return sorted(m for m in sys.modules if m.startswith('p1qcurve.'))\n"
)


def fresh(script: str) -> str:
    """stdout of ``script`` in a fresh interpreter, with no result cache."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    env.pop("P1QC_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-c", LOADED + textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_importing_the_package_and_the_cli_loads_only_the_cli():
    out = fresh("""
        import p1qcurve, p1qcurve.cli
        print(loaded(), 'fractions' in sys.modules)
    """)
    assert out == "['p1qcurve.cli'] False"


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["xd", "--d", "1", "--frobnicate"], 2),
    (["--budget", "1", "verify", "--suite", "toda"], 2),
    (["--budget", "3", "gw", "--g", "2", "--n", "4", "--d", "8", "--b", "1,1,2,14"], 1),
])
def test_a_run_that_computes_nothing_loads_only_the_cli(argv, code):
    out = fresh(f"""
        import contextlib, io
        from p1qcurve.cli import main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main({argv!r}) == {code!r}
        print(loaded())
    """)
    assert out == "['p1qcurve.cli']"


@pytest.mark.parametrize("argv, modules", [
    (["gw", "--g", "2", "--n", "4", "--d", "8", "--b", "1,1,2,14"], ["partitions", "wedge"]),
    (["xd", "--d", "3"], ["partitions", "qcurve"]),
    (["table", "--what", "smatrix", "--range", "0..2"], ["partitions", "toprec", "wedge"]),
    (["verify", "--suite", "han", "--max", "3"], ["partitions"]),
])
def test_a_subcommand_loads_only_what_it_computes(argv, modules):
    out = fresh(f"""
        import contextlib, io
        from p1qcurve.cli import main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main({argv!r}) == 0
        print(loaded())
    """)
    assert out == repr(sorted(f"p1qcurve.{m}" for m in ["cli", "exactcore", *modules]))


@pytest.mark.parametrize("argv, modules", [
    (["gw", "--g", "2", "--n", "4", "--d", "8", "--b", "1,1,2,14"], []),
    # wgn and fgn read toprec.WGN_BOUND before the cache is read
    (["wgn", "--g", "1", "--n", "1"], ["exactcore", "partitions", "toprec", "wedge"]),
])
def test_a_replay_loads_only_what_it_reads_before_the_cache(argv, modules, tmp_path):
    script = f"""
        import contextlib, io, os
        os.environ["P1QC_CACHE_DIR"] = {str(tmp_path)!r}
        from p1qcurve.cli import main
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
            assert main({argv!r}) == 0
        print(loaded())
        print(text.getvalue().strip())
    """
    fresh(script)
    # mark the stored payload, so that only a replay can print the mark
    (entry,) = tmp_path.iterdir()
    data = json.loads(entry.read_text())
    data["payload"]["replayed"] = True
    entry.write_text(json.dumps(data))
    out, document = fresh(script).split("\n")
    assert json.loads(document)["payload"]["replayed"] is True
    assert out == repr(sorted(f"p1qcurve.{m}" for m in ["cli", *modules]))


def test_every_export_is_the_object_of_its_defining_module():
    out = fresh("""
        import importlib
        import p1qcurve
        assert set(p1qcurve.__all__) <= set(dir(p1qcurve))
        star = {}
        exec("from p1qcurve import *", star)
        del star["__builtins__"]
        assert sorted(star) == p1qcurve.__all__
        for name in p1qcurve.__all__:
            module = importlib.import_module(f"p1qcurve.{p1qcurve._MODULE_OF[name]}")
            assert star[name] is getattr(p1qcurve, name) is getattr(module, name), name
        print(p1qcurve.partitions.__module__, loaded())
    """)
    # the function partitions, not the module the import system binds under that name
    assert out.split(" ")[0] == "p1qcurve.partitions"
    assert "p1qcurve.wavefunction" in out


def test_a_module_of_the_package_resolves_as_an_attribute():
    out = fresh("""
        import p1qcurve
        print(p1qcurve.toprec.__name__, loaded())
    """)
    assert out.startswith("p1qcurve.toprec ")


def test_the_package_reads_each_export_through_its_module(monkeypatch):
    # nothing is stored on the package, so a patch of the defining module is
    # seen there, and so is its undoing
    wedge = importlib.import_module("p1qcurve.wedge")
    original = wedge.stationary_invariant

    def patched(*args):
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(wedge, "stationary_invariant", patched)
        assert p1qcurve.stationary_invariant is patched
    assert p1qcurve.stationary_invariant is original
    assert "stationary_invariant" not in vars(p1qcurve)


def test_a_patch_of_the_defining_module_is_seen_by_the_command():
    out = fresh("""
        import contextlib, importlib, io
        from fractions import Fraction
        from p1qcurve import cli
        wedge = importlib.import_module("p1qcurve.wedge")
        wedge.stationary_invariant = lambda g, n, d, b: Fraction(-5, 7)
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["gw", "--g", "0", "--n", "1", "--d", "1", "--b", "0"]) == 0
        print(text.getvalue().strip())
    """)
    assert '"value":"-5/7"' in out

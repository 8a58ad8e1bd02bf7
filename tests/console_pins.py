"""The console script's stdout pins: ``(argv, first 16 hex digits of the
sha256 of stdout)``, one list for every place that checks them.

``tests/test_cli.py`` runs each pin through ``cli.main`` in process.  Run as
a script, ``python tests/console_pins.py`` runs each pin through the ``p1qc``
script on ``PATH``, one process per pin with ``P1QC_CACHE_DIR`` unset, and
exits 1 naming every mismatch.
"""

import hashlib
import os
import subprocess
import sys

CONSOLE_PINS = [
    ("xd --d 3", "c4ba1c8f5bf95483"),
    ("xd --d 12 --form both", "ee3d58eb6286385e"),
    ("verify --suite ydzero --max 12", "d7d9d2b0d5e023ff"),
    ("verify --suite recursion --max 3", "5f4907f408652b31"),
    ("--budget 2 verify --suite theta", "d287088bd933a8f0"),
    ("verify --suite ns", "e156c896b0ae4ade"),
    ("wgn --g 1 --n 1", "10b4759def134ee3"),
    ("verify --suite qce --max 3", "21a7e40eb894a9bd"),
    ("verify --suite qce", "f052e4d8857d8c1e"),
    ("psi-check", "5de7d9ef1ecf4e72"),
    ("psi-check --dmax 2 --order 4", "c42087a3a408b609"),
    ("toda-check --order 4 --dmax 2", "b065c357d16881ea"),
    ("fgn --g 0 --n 4 --order 6", "ece8147d7f27bd06"),
    ("fgn --g 1 --n 2 --order 8", "71478b289d0f9bc6"),
    ("fgn --g 0 --n 5 --order 6", "58bcb123c1e829a9"),
    ("wgn --g 0 --n 4 --emit expansion --order 10", "9e163f277bcafc80"),
    ("wgn --g 2 --n 2", "b76e0b0fcd1bdb20"),
    ("verify --suite all", "25058f7cd6ee9964"),
    ("verify --suite recursion", "63c2153287a91686"),
    ("verify --suite ydzero", "cac19248a1984edb"),
    ("verify --suite han", "c0dee448ec97a742"),
    ("verify --suite toda", "7e3f3dbd4cb1f66f"),
    ("verify --suite toda --max 12", "15b8b4cf29711c0a"),
    ("xd --d 20 --form both", "30a618efee2a50d9"),
    ("wgn --g 1 --n 4", "48661f7d5290d31b"),
    ("wgn --g 0 --n 6", "59a6773addbccc92"),
    ("gw --g 2 --n 4 --d 8 --b 1,1,2,14", "782edb92f6a1219f"),
    ("table --what invariants --range 1..4", "5b6506e2186c0690"),
    ("verify --suite theta", "3c15c9c48779600e"),
    ("table --what smatrix --range 0..8", "6be0c85a07c2c3c1"),
    ("table --what xd --range 0..4", "50fb84a373042033"),
]


def stdout_digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()[:16]


def mismatches(pins) -> list[str]:
    """One line per pin whose ``p1qc`` stdout does not match its digest."""
    env = {k: v for k, v in os.environ.items() if k != "P1QC_CACHE_DIR"}
    found = []
    for argv, digest in pins:
        proc = subprocess.run(["p1qc", *argv.split()], env=env, stdout=subprocess.PIPE)
        got = stdout_digest(proc.stdout)
        if got != digest:
            found.append(f"p1qc {argv}: stdout {got}, pinned {digest} (exit {proc.returncode})")
    return found


if __name__ == "__main__":
    bad = mismatches(CONSOLE_PINS)
    for line in bad:
        print(f"MISMATCH {line}", file=sys.stderr)
    print(f"{len(CONSOLE_PINS) - len(bad)} of {len(CONSOLE_PINS)} console pins match")
    sys.exit(1 if bad else 0)

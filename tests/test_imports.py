"""The package has no runtime dependencies beyond the standard library.

Importing the CLI (which imports every subcommand's modules) must not
pull in ``networkx`` or ``numpy``, so neither can come back unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = (
    "import repro.cli, sys; "
    "print(','.join(m for m in ('networkx', 'numpy') if m in sys.modules))"
)


def test_cli_import_loads_no_heavy_dependency():
    env = dict(os.environ, REPRO_LEDGER="off")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""

"""What ``import repro`` costs a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro


def test_import_loads_no_scipy():
    """scipy is imported by the few functions that use it, not at load:
    it would triple the import time of every CLI call and pool worker."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    probe = (
        "import json, sys, repro; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith('scipy'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []

"""What ``import repro`` costs a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro


def loaded_modules(probe, prefix, timeout):
    """Run ``probe`` in a fresh interpreter; the modules it left loaded
    whose names start with ``prefix``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    script = (
        f"{probe}\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules "
        f"if m.startswith({prefix!r}))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=timeout, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    """scipy is imported by the few functions that use it, not at load:
    it would triple the import time of every CLI call and pool worker."""
    assert loaded_modules("import repro", "scipy", timeout=120) == []


def test_serial_run_imports_no_parallel():
    """A serial CCQ run never builds the pool executor, so it never pays
    for importing ``repro.parallel``."""
    probe = "\n".join([
        "from repro.core import CCQConfig, CCQQuantizer, RecoveryConfig",
        "from repro.experiments import build_task",
        "task = build_task('resnet20_cifar10', 'micro')",
        "model, _ = task.pretrained_model()",
        "train, val = task.loaders()",
        "config = CCQConfig(",
        "    max_steps=1, probe_workers=0, recover_workers=0,",
        "    recovery=RecoveryConfig(trainer='serial'),",
        ")",
        "result = CCQQuantizer(",
        "    model, train, val, config=config, policy='pact',",
        ").run()",
        "assert len(result.records) == 1",
    ])
    assert loaded_modules(probe, "repro.parallel", timeout=300) == []

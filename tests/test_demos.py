"""Smoke tests: every demo runs to completion as a script, and ``python -m qhahn_polymer`` runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _env():
    """This environment with the source tree first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("demo", ["01_exact_identities.py", "02_sample_heights.py", "03_moment_formulas.py",
                                  "04_beta_polymer.py", "05_laplace_fredholm.py",
                                  "06_tracy_widom_experiment.py"])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "qhahn_polymer", "verify", "ybe", "--kind", "defhsYB",
                           "--trials", "2", "--seed", "1"], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["summary"]["nonzero_residuals"] == 0

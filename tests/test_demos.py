"""Each script under ``demos/`` runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert [d.name for d in DEMOS] == [
        "01_quadratic_forms.py", "02_eta_coefficients.py",
        "03_shift_sweep.py", "04_identity_gallery.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout
    if demo.name == "03_shift_sweep.py":
        # each family's vanishing parity, re-derived from PrimeContext.chain
        assert "??" not in r.stdout
        assert r.stdout.count(" ok") == 16

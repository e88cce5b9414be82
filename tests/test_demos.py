"""The demos, run as scripts, print what they printed when recorded.

Each demo runs in its own interpreter with src/ on the import path, and its
stdout must equal tests/golden/demos/<demo>.txt byte for byte. Demo 04 walks
both Frobenius routes, the series and the Teichmuller point.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).resolve().parent / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_recorded():
    assert [d.stem for d in DEMOS] == sorted(f.stem for f in RECORDED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_matches_recording(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (RECORDED / f"{demo.stem}.txt").read_text()

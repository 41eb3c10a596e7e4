"""Every demo script runs to completion against the source tree and prints
the text committed in `tests/demo_output/<demo>.txt`.

The one wall-clock reading, `hurwitz_walks.py`'s "N random moves in X.Xs",
is masked before the comparison.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "demo_output"
CLOCK = re.compile(r"^(\d+ random moves in )\d+\.\ds$", re.MULTILINE)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    expected = (EXPECTED / f"{demo.stem}.txt").read_text()
    assert CLOCK.sub(r"\1X.Xs", proc.stdout) == expected

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, child_env):
    # each demo is a script against the public API; run it as a user would
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=child_env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

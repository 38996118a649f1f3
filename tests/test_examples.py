"""The library surface the examples use: every example script exits 0.

Each script in ``examples/`` runs in a fresh interpreter with ``src/`` on
the path and an empty temporary directory as its working directory, so a
script that writes results leaves nothing behind in the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(tmp_path, script):
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr

"""The scripts under scripts/ run to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        # 40 cases: at 10 both audit cases draw a part of size 0, so no
        # audit, q or survey comparison sees a located chain.
        ["oracle_sweep.py", "--max-size", "5", "--cases", "40"],
        ["decompose_demo.py"],
        ["tower_refusal_demo.py"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_zero(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr

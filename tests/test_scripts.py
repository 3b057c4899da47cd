"""The scripts under scripts/ run to completion against the package, and
the oracle registry passes at the sizes the tests can afford."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from regulab.cli import run
from regulab.oracles import CASES
from regulab.report import load_report

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
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


def test_oracle_check_passes_on_every_case(tmp_path, capsys):
    """The registry on 40 instances (10 for the one-in-four cases) with
    parts of 1 to 5 vertices: every case runs and nothing mismatches."""
    out = tmp_path / "oc.json"
    assert run(["oracle-check", "--sizes", "1..5", "--cases", "40", "--seed", "7",
                "--output", str(out)]) == 0
    audit = load_report(out.read_text())["audit"]
    assert audit["mismatches"] == 0
    assert sorted(audit["cases"]) == sorted(case.name for case in CASES)
    assert all(case["instances"] >= 1 and case["mismatches"] == 0
               for case in audit["cases"].values())
    capsys.readouterr()

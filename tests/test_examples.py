"""Smoke tests: every shipped example runs to completion.

Examples are documentation that executes; these tests keep them honest.
Each runs in a subprocess exactly as a user would invoke it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), f"{script} produced no output"


def test_expected_examples_present():
    assert {
        "quickstart.py",
        "dba_workflow.py",
        "auto_detection.py",
        "telemetry_export.py",
        "workload_drift.py",
    } <= set(EXAMPLES)

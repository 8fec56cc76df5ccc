"""Smoke tests: the runnable examples must stay runnable.

Only the fastest example executes in the unit suite; CI runs the
others in a separate step.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_examples_present():
    expected = {
        "quickstart.py",
        "social_network_slo.py",
        "cache_contention_study.py",
        "deep_forest_demo.py",
        "online_management.py",
    }
    assert expected <= {p.name for p in EXAMPLES.glob("*.py")}


def test_cache_contention_study_runs():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "cache_contention_study.py")],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Section 2 conjectures hold" in proc.stdout
    assert "Miss-ratio curve" in proc.stdout


def test_examples_have_main_guard():
    for path in EXAMPLES.glob("*.py"):
        text = path.read_text()
        assert '__main__' in text, f"{path.name} lacks a main guard"
        assert text.startswith("#!"), f"{path.name} lacks a shebang"

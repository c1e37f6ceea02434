"""Smoke tests: the fast example scripts run and print what they promise."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 600) -> str:
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout


def test_quickstart():
    output = run_example("quickstart.py")
    assert "PC" in output
    assert "knn-join" in output


def test_custom_dataset():
    output = run_example("custom_dataset.py")
    assert "wirless" in output  # the typo survived the 3-gram join
    assert "PC=1.00" in output


@pytest.mark.parametrize(
    "name",
    ["product_deduplication.py", "bibliographic_linkage.py",
     "compare_filters.py", "auto_configuration.py"],
)
def test_other_examples_compile(name):
    """The slower examples at least byte-compile."""
    source = (EXAMPLES / name).read_text()
    compile(source, name, "exec")

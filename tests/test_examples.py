"""The runnable documentation runs: every example script and every
``# PYTHONPATH=src python`` block of README.md exits cleanly."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
#: Extra arguments per example (keep the process count small).
EXAMPLE_ARGS = {"protocol_comparison.py": ["--jobs", "1"]}
README_BLOCKS = re.findall(
    r"```python\n(# PYTHONPATH=src python\n.*?)```", (ROOT / "README.md").read_text(), re.S
)


def _run(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(path):
    done = _run([sys.executable, str(path), *EXAMPLE_ARGS.get(path.name, [])])
    assert done.returncode == 0, done.stderr
    assert done.stdout


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_snippet_runs(index):
    done = _run([sys.executable, "-c", README_BLOCKS[index]])
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_readme_has_runnable_snippets():
    assert README_BLOCKS

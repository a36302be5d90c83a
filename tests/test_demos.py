"""Every script under ``demos/`` and the README quick start run to completion
as a user would start them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_quick_start() -> str:
    """The first ```python block of README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("```python\n", 1)[1].split("```", 1)[0]


SCRIPTS = [[str(d)] for d in DEMOS] + [["-c", readme_quick_start()]]


def test_the_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", SCRIPTS, ids=[d.name for d in DEMOS] + ["README-quick-start"])
def test_demo_runs_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert proc.stderr == ""

"""Each demo script runs to completion against the package in ``src``, and
the README's quick start prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    printed = out.getvalue().splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    checked = 0
    for line, shown in zip(prints, printed):
        if "#" not in line:
            continue
        # the comment's last "= value" is the exact one: "0.696 = 87/125"
        expected = line.split("#", 1)[1].split("=")[-1].strip()
        try:
            assert float(shown) == pytest.approx(float(Fraction(expected)), abs=1e-12)
        except ValueError:
            assert shown == expected
        checked += 1
    assert checked == 3

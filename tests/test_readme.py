"""The README's Quick start block runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under Quick start"
    return match.group(1)


def test_quick_start_runs_and_programs_one_millivolt():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_block(), "README.md#quick-start", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    step, survived = float(lines[0]), float(lines[1])
    assert abs(step - 1.0) <= 1e-3  # the default precompensation tolerance
    assert 0.0 < survived < step
    v_set, v_reset, clock = map(float, lines[2].split())
    assert v_set < v_reset < 7.5
    assert clock == 500.5

"""The README's library example runs and prints what it says it prints."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_the_billiard_bounds():
    text = README.read_text(encoding="utf-8")
    (code,) = re.findall(r"## Library example\s+```python\n(.*?)```", text, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    first, second = out.getvalue().splitlines()
    assert float(first.split()[0]) == pytest.approx(28.390, abs=5e-4)
    lower, upper = second.split()
    assert float(lower) == pytest.approx(28.390, abs=5e-4)
    assert upper == "inf"

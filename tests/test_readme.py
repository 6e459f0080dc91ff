"""The README's library example runs against the current API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    namespace: dict = {}
    exec(compile(code, f"{README}:## Library", "exec"), namespace)
    assert len(namespace["labels"]) == 2
    assert namespace["violations"] == ()
    assert namespace["problems"] == []

"""The README's library example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    with open(README) as handle:
        blocks = re.findall(r"```python\n(.*?)```", handle.read(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert "d=MultiplicityVector(d=(1, 1), degenerate=False)" in lines[1]
    assert lines[2:] == ["True", "True"]

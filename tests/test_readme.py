"""The README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S)
    assert block is not None, "README has no python block"
    exec(compile(block.group(1), str(README), "exec"), {})
    status = capsys.readouterr().out.split()[0]
    assert status in ("converged", "floored")

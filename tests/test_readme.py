"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README has no python block under '## Library'"
    exec(compile(block.group(1), "README.md", "exec"), {})

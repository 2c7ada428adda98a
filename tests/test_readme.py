"""The README's Library example runs as written, so the documented API
cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first ```python block under the README's "Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "the Library section holds no python block"
    return block.group(1)


def test_readme_library_example_runs():
    exec(compile(library_example(), str(README), "exec"), {})

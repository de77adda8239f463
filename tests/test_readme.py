"""The Python examples in the README's "Library use" section run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_blocks() -> list[str]:
    text = README.read_text()
    start = text.index("## Library use")
    section = text[start:text.index("\n## ", start)]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_use_examples_run(capsys):
    blocks = library_use_blocks()
    assert blocks
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md Library use block {number}", "exec"), {})
        assert capsys.readouterr().out, f"block {number} printed nothing"

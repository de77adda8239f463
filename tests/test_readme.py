"""The Python examples in the README's "Library use" section run as written,
and the package's top level exports what the README documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_blocks() -> list[str]:
    text = README.read_text()
    start = text.index("## Library use")
    section = text[start:text.index("\n## ", start)]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def code_spans() -> set[str]:
    """The README's inline code spans, outside its fenced blocks."""
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    return set(re.findall(r"`([^`\n]+)`", prose))


def test_library_use_examples_run(capsys):
    blocks = library_use_blocks()
    assert blocks
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md Library use block {number}", "exec"), {})
        assert capsys.readouterr().out, f"block {number} printed nothing"


def test_package_exports_what_the_readme_documents():
    """Every name in pcrlb.__all__ is in a README code span, and every code
    span that names a public top-level object of pcrlb, other than a
    submodule, is in pcrlb.__all__."""
    import inspect

    import pcrlb

    spans = code_spans()
    exported = set(pcrlb.__all__)
    assert sorted(exported - spans) == []
    named = {span for span in spans if span.isidentifier() and not span.startswith("_")
             and hasattr(pcrlb, span) and not inspect.ismodule(getattr(pcrlb, span))}
    assert sorted(named - exported) == []

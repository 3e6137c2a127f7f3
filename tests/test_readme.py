"""README.md's Python examples run as written: its ```python blocks, in order, in one
namespace, so a name the docs use that the package no longer has fails here."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.S | re.M))
    assert blocks, "README.md has no ```python block"
    namespace = {}
    for block in blocks:
        # padded to the block's first line, so a traceback names the README line
        first = text.count("\n", 0, block.start(1))
        exec(compile("\n" * first + block.group(1), str(README), "exec"), namespace)

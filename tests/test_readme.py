"""README.md's Python examples run as written: its ```python blocks, in order, in one
namespace, so a name the docs use that the package no longer has fails here. The
calls its prose names in inline code must exist too."""

import builtins
import importlib
import os
import pathlib
import pkgutil
import re

import numpy as np

import embednoise

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


def package_names() -> set:
    """Every attribute of a package module, or of a class defined in one."""
    names = set()
    for info in pkgutil.walk_packages(embednoise.__path__, "embednoise."):
        module = importlib.import_module(info.name)
        names.update(dir(module))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("embednoise."):
                names.update(dir(value))
    return names


def test_readme_prose_calls_exist():
    # a call such as `emb.name(` or `name(x)` in prose, the last dotted name being called
    prose = re.sub(r"^```.*?^```$", "", README.read_text(), flags=re.S | re.M)
    called = set(re.findall(r"`(?:[\w.]+\.)?(\w+)\(", prose))
    assert {"synthetic_hardware_run", "simulated_anneal"} <= called  # the pattern finds calls
    known = package_names() | set(dir(np)) | set(dir(os)) | set(dir(builtins))
    assert sorted(called - known) == []

"""The ``>>>`` examples in the package's docstrings, run as tests."""

from __future__ import annotations

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import broughton

README = Path(__file__).resolve().parent.parent / "README.md"


def test_docstring_examples():
    names = ["broughton"] + [
        f"broughton.{info.name}" for info in pkgutil.iter_modules(broughton.__path__)
    ]
    results = [doctest.testmod(importlib.import_module(name)) for name in names]
    assert sum(result.failed for result in results) == 0
    # unipoly (5), squarefree (1) and decompose (1) carry examples.
    assert sum(result.attempted for result in results) >= 5


def test_readme_library_example():
    # The one ``python`` block of the README, run as it is written.
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})

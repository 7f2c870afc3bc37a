"""The package's public API: what ``groupwidths`` exports, and the
README's library sketch."""

import re
import types
from pathlib import Path

import groupwidths

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve_and_none_is_a_submodule():
    assert len(set(groupwidths.__all__)) == len(groupwidths.__all__)
    for name in groupwidths.__all__:
        value = getattr(groupwidths, name)
        assert not isinstance(value, types.ModuleType), name


def test_readme_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", text, re.S)
    namespace: dict = {}
    exec(block.group(1), namespace)
    assert namespace["cert"].factor_count == 1

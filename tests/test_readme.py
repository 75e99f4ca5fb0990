"""README.md's library example runs against the package as it is.

A README that names a removed function or parameter fails here, not in a
reader's session.
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The first python block under the ``## Library`` heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    assert match, "README.md's Library section has no python block"
    return match.group(1)


def test_library_example_runs():
    exec(compile(library_block(), "README.md#library", "exec"), {})

"""Every ```python block of README.md runs as written.

Each block runs on its own, in a fresh namespace, from a directory whose
``inst.txt`` is tests/fixtures/three-blocks.txt, so a public name that the
README uses and the package no longer has fails here.
"""

from __future__ import annotations

import re
import shutil
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
INSTANCE = Path(__file__).parent / "fixtures" / "three-blocks.txt"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k + 1}" for k in range(len(BLOCKS))])
def test_block_runs(code, tmp_path, monkeypatch, capsys):
    shutil.copy(INSTANCE, tmp_path / "inst.txt")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out

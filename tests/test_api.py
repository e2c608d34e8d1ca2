"""The public surface: every exported name resolves, and README's
library quick start runs as written."""

import pkgutil
import re
from pathlib import Path

import pytest

import eqm

MODULES = sorted(info.name for info in pkgutil.iter_modules(eqm.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    exec(f"from eqm.{name} import *", {})  # a stale __all__ entry raises


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    assert len(printed[0].split()) == 2  # u1 u2

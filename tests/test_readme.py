"""README drift: its quickstart runs and every API name it cites exists."""
import importlib
import pkgutil
import re
from pathlib import Path

import capfolio

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = sorted(info.name for info in pkgutil.iter_modules(capfolio.__path__))


def test_quickstart_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert blocks, "README has no python block"
    exec(compile(blocks[0], "README.md quickstart", "exec"), {})


def test_module_references_resolve():
    pattern = re.compile(r"\b(" + "|".join(MODULES) + r")\.([A-Za-z_]\w*)")
    refs = sorted(set(pattern.findall(README)))
    assert refs, "README cites no module.name"
    missing = [
        f"{module}.{name}"
        for module, name in refs
        if not hasattr(importlib.import_module(f"capfolio.{module}"), name)
    ]
    assert missing == []

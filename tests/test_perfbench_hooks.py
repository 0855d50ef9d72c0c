"""The traced benchmark's hooks name attributes that exist.

``perfbench/tracing.py`` skips a hook whose target is missing and reports
its metrics as absent, so a renamed or removed target would otherwise show
only in a traced benchmark run. The targets are resolved here the way
``tracing.install`` resolves them, without patching anything.
"""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_hook_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.HOOKS
    for hook, module_name, path, _make in tracing.HOOKS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"hook {hook}: {module_name}.{path} not found"
            owner = getattr(owner, part)
        assert callable(owner), f"hook {hook}: {module_name}.{path} is not callable"

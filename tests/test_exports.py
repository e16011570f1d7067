"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import nematicq


def test_every_exported_name_resolves():
    modules = [nematicq] + [
        importlib.import_module(f"nematicq.{info.name}") for info in pkgutil.iter_modules(nematicq.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []

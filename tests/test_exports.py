"""Every exported name resolves, so a deletion cannot leave a stale
entry in an __all__ list."""

import importlib
import pkgutil

import ddvar


def test_every_export_resolves():
    modules = [ddvar] + [importlib.import_module(f"ddvar.{m.name}")
                         for m in pkgutil.iter_modules(ddvar.__path__)]
    stale = [f"{mod.__name__}.{name}" for mod in modules
             for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert stale == []

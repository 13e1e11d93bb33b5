import importlib
import pkgutil

import pytest

import powersum_forge

MODULES = ["powersum_forge"] + [
    f"powersum_forge.{info.name}"
    for info in pkgutil.iter_modules(powersum_forge.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    """A name left in ``__all__`` after its definition was removed fails here."""
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(exports) == len(set(exports)), f"{name}.__all__ repeats a name"
    missing = [export for export in exports if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


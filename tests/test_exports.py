import importlib
import pkgutil

import pytest

import sivcav

MODULES = sorted(["sivcav"] + [m.name for m in pkgutil.walk_packages(
    sivcav.__path__, prefix="sivcav.")])


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a name left in __all__ after its definition is deleted breaks
    # `from module import *` only when someone runs it; catch it here
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", ())
    assert len(set(exports)) == len(exports), f"{name}.__all__ repeats a name"
    missing = [e for e in exports if not hasattr(module, e)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"

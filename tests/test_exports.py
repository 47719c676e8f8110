import importlib
import pkgutil
import re
from pathlib import Path

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


def test_console_script_is_the_cli_entry():
    # the installed `sivcav` must end its process the way `python -m
    # sivcav.cli` does; read as text, since tomllib needs Python 3.11
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text,
                        re.MULTILINE | re.DOTALL)
    assert scripts, "pyproject.toml has no [project.scripts] table"
    target = re.search(r'^sivcav\s*=\s*"([^"]+)"', scripts.group(1), re.MULTILINE)
    assert target and target.group(1) == "sivcav.cli:entry"
    module, attr = target.group(1).split(":")
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name", MODULES)
def test_reexports_are_exported_at_home(name):
    # a function or class that a module re-exports is public where it is
    # defined too, whenever that module declares its exports
    module = importlib.import_module(name)
    strays = []
    for export in getattr(module, "__all__", ()):
        home_name = getattr(getattr(module, export), "__module__", None)
        if home_name == name or not str(home_name).startswith("sivcav"):
            continue
        home = importlib.import_module(home_name)
        if export not in getattr(home, "__all__", (export,)):
            strays.append(f"{export} (defined in {home_name})")
    assert not strays, f"{name}.__all__ re-exports names private at home: {strays}"


def test_readme_lists_the_fit_models():
    # the README's `fit` paragraph names the models `sivcav fit` takes; each
    # is one of `sivcav.fitting.MODELS`, exported there as a constant
    from sivcav import fitting

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"`fit` fits one of the\s+shipped models \(([^)]*)\)", text)
    assert listed, "README has no list of the `fit` models"
    assert set(re.findall(r"`(\w+)`", listed.group(1))) == set(fitting.MODELS)
    exported = [getattr(fitting, name) for name in fitting.__all__]
    for name, model in fitting.MODELS.items():
        assert any(e is model for e in exported), f"{name} is not exported"

"""The suite tests the `sivcav` that it imports, and no other.

pyproject's `pythonpath = ["src"]` goes ahead of `PYTHONPATH`, so
`PYTHONPATH=<other copy>/src pytest` run here would import this checkout's
package and test it in silence. Such a run stops with one line that names
both packages; run each copy's tests from its own directory instead.
"""

import os
from pathlib import Path

import pytest

import sivcav


def pytest_configure(config):
    imported = Path(sivcav.__file__).resolve().parent
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        other = Path(entry, "sivcav")
        if (other / "__init__.py").is_file() and other.resolve() != imported:
            raise pytest.UsageError(
                f"PYTHONPATH holds {other.resolve()} but the tests import "
                f"{imported}: run each copy's tests from its own directory")

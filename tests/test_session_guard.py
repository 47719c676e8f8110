"""A pytest run whose PYTHONPATH names another `sivcav` stops at once."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_other_copy_on_pythonpath_stops_the_run(tmp_path):
    (tmp_path / "sivcav").mkdir()
    (tmp_path / "sivcav" / "__init__.py").write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--collect-only", "tests/test_table.py"],
        cwd=REPO, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(tmp_path)))
    assert proc.returncode == 4, proc.stdout + proc.stderr
    (line,) = proc.stderr.strip().splitlines()
    assert line == (f"ERROR: PYTHONPATH holds {tmp_path.resolve() / 'sivcav'} but "
                    f"the tests import {REPO / 'src' / 'sivcav'}: run each "
                    "copy's tests from its own directory")

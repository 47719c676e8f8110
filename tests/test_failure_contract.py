"""Every float leaf of every shipped config, at the extremes of float64.

Each float leaf of each file in `configs/` is set to +-1e300, +-1e303,
+-1e-300, +-1e150 (whose squares in Hz overflow) and 5e-324 (the smallest
subnormal, which a unit conversion takes to 0) and run in process through
`sivcav run`. The run must either
succeed silently (exit 0, nothing on stderr) or fail with its documented exit
code (1 for a config error, 2 for a runtime error) and exactly one `error:`
line. Warnings are errors under this suite's settings, so a numpy
`RuntimeWarning` that leaks from a run fails its case too. Integer leaves
(counts, the seed) have bound tests of their own.
"""

import functools
import operator
from pathlib import Path

import pytest
import yaml

from sivcav.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# 1e303 MHz is beyond float64 in Hz
EXTREMES = (1e300, -1e300, 1e303, -1e303, 1e-300, -1e-300, 5e-324, 1e150, -1e150)


def float_leaves(tree, path=()):
    """Key/index paths of every float in a nested dict/list tree."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return [path] if isinstance(tree, float) else []
    return [p for k, v in items for p in float_leaves(v, path + (k,))]


def cases():
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        for path in float_leaves(yaml.safe_load(cfg.read_text())):
            for value in EXTREMES:
                name = ".".join(str(k) for k in path)
                yield pytest.param(cfg.name, path, value,
                                   id=f"{cfg.stem}:{name}={value:g}")


@pytest.mark.parametrize("name, path, value", cases())
def test_extreme_leaf_runs_or_fails_in_one_line(tmp_path, capsys, name, path,
                                                value):
    tree = yaml.safe_load((CONFIGS / name).read_text())
    *owner, leaf = path
    functools.reduce(operator.getitem, owner, tree)[leaf] = value
    cfg = tmp_path / name
    cfg.write_text(yaml.safe_dump(tree))
    rc = cli_main(["run", str(cfg), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    if rc == 0:
        assert err == ""
    else:
        assert (rc in (1, 2), out) == (True, ""), (rc, err)
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err

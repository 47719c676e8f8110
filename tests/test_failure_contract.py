"""Every float leaf of every shipped config, at the extremes of float64.

Each float leaf of each file in `configs/` is set to +-1e300, +-1e303,
+-1e-300, +-1e150 (whose squares in Hz overflow) and 5e-324 (the smallest
subnormal, which a unit conversion takes to 0) and run in process through
`sivcav run`. The run must either
succeed silently (exit 0, nothing on stderr) or fail with its documented exit
code (1 for a config error, 2 for a runtime error) and exactly one `error:`
line. Warnings are errors under this suite's settings, so a numpy
`RuntimeWarning` that leaks from a run fails its case too. A value outside
its leaf's declared range (read from `sivcav.config`) must fail validation:
exit 1, with the one line that names the leaf, the bound and the value.
No value of magnitude 1e150 or more may run at all.
Integer leaves (counts, the seed) have bound tests of their own.

A hypothesis test holds the same contract inside the ranges: for each
shipped config it draws every number leaf at once, each float log-uniform
within its declared range with the range's ends included, each count no
larger than the shipped one, so that a run stays within a few MB, and the
seed anywhere in its range.
"""

import contextlib
import functools
import io
import math
import operator
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from sivcav.cli import main as cli_main
from sivcav.config import _ROOTS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# 1e303 MHz is beyond float64 in Hz
EXTREMES = (1e300, -1e300, 1e303, -1e303, 1e-300, -1e-300, 5e-324, 1e150, -1e150)


def number_leaves(tree, path=(), kind=float):
    """Key/index paths of every `kind` (not bool) in a nested dict/list tree."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return [path] if isinstance(tree, kind) and not isinstance(tree, bool) \
            else []
    return [p for k, v in items for p in number_leaves(v, path + (k,), kind)]


def leaf_parser(protocol, path):
    """The parser of the leaf at key/index `path`, and its field name."""
    table, field = _ROOTS[protocol], ""
    for k in path:
        if isinstance(k, int):  # an item of a block list or a 3-vector
            field += f"[{k}]"
        else:
            parse = table[k]
            table = getattr(parse, "table", None)
            field = f"{field}.{k}" if field else k
    return parse, field


def range_error(parse, value):
    """The complaint of the leaf `parse` about `value`; None within range."""
    minimum, maximum, positive = parse.range
    if positive and value <= 0:
        return "must be positive"
    if value < minimum:
        return f"must be >= {minimum}"
    if value > maximum:
        return f"must be <= {maximum}"
    return None


def cases():
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        for path in number_leaves(yaml.safe_load(cfg.read_text())):
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
    parse, field = leaf_parser(tree["protocol"], path)
    complaint = range_error(parse, value)
    if complaint is not None:
        assert (rc, out, err) == (1, "", f"error: {complaint}, got {value} "
                                         f"(field: {field})\n")
    elif rc == 0:
        assert err == "" and abs(value) < 1e150  # no such value is physical
    else:
        assert (rc in (1, 2), out) == (True, ""), (rc, err)
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def within(parse):
    """Floats in the declared range of leaf `parse`: its ends, and
    magnitudes log-uniform from its lower end (or the smallest normal
    float) to its upper end, on each side of 0 that the range holds."""
    minimum, maximum, positive = parse.range
    ends = [maximum] + ([minimum] if minimum > 0 or not positive else [])
    floor = minimum if minimum > 0 else sys.float_info.min

    def magnitudes(top):
        return st.floats(math.log10(floor), math.log10(top)).map(
            lambda e: min(max(10.0 ** e, floor), top))
    sides = [magnitudes(maximum)]
    if minimum < 0:
        sides.append(magnitudes(-minimum).map(lambda m: -m))
    return st.one_of(st.sampled_from(ends), *sides)


def ordered_ends(tree):
    """Put each `start*` at or below its `stop*`, and a single-point axis's
    stop on its start, so that a draw reaches the physics."""
    if isinstance(tree, list):
        for item in tree:
            ordered_ends(item)
    elif isinstance(tree, dict):
        for key in [k for k in tree if k.startswith("start")]:
            stop = "stop" + key[len("start"):]
            lo, hi = sorted((tree[key], tree[stop]))
            tree[key], tree[stop] = lo, (lo if tree.get("points") == 1 else hi)
        for value in tree.values():
            ordered_ends(value)


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_leaves_within_their_ranges_run_or_fail_in_one_line(name, data):
    tree = yaml.safe_load((CONFIGS / name).read_text())
    for kind in (float, int):
        for path in number_leaves(tree, kind=kind):
            parse, field = leaf_parser(tree["protocol"], path)
            *owner, key = path
            owner = functools.reduce(operator.getitem, owner, tree)
            if kind is float:
                values = within(parse)
            else:  # a count is capped at its shipped value, the seed is not
                minimum, maximum, _ = parse.range
                top = maximum if key == "seed" else min(maximum, owner[key])
                values = st.integers(minimum, top)
            owner[key] = data.draw(values, label=field)
    ordered_ends(tree)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as root, contextlib.redirect_stderr(err):
        cfg = Path(root, name)
        cfg.write_text(yaml.safe_dump(tree))
        rc = cli_main(["run", str(cfg), "--out", str(Path(root, "out"))])
    err = err.getvalue()
    if rc == 0:
        assert err == ""
    else:
        assert rc in (1, 2), (rc, err)
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err

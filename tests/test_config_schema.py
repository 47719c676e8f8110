"""Every key in the config schema changes a run's output or is rejected.

The keys come from the schema tables themselves (`sivcav.config._SCHEMAS`),
so a key added to a table is covered without editing this file. Each key is
perturbed in the shipped config of its protocol: the perturbed config must
either fail validation or change `data.csv` or `fits.json`.
"""

import copy
import functools
import operator
from pathlib import Path

import pytest
import yaml

from sivcav.config import _SCHEMAS, validate_tree
from sivcav.errors import ConfigError
from sivcav.protocols import run_protocol

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
#: protocol -> its shipped config tree
SHIPPED = {tree["protocol"]: tree for tree in
           (yaml.safe_load(path.read_text()) for path in CONFIGS.glob("*.cfg"))}

_LEVEL_ENERGY = ("reaches only Level.energy, which nothing reads beyond a "
                 "finiteness check")
_NOT_IN_T1 = "simulate_t1_recovery never reads it"
#: (protocol, dotted key) -> why the key validates but changes no output.
#: `bench/gen.py` writes f_s_ghz and `bench/checks.py` reads all of these
#: through build_spin_pump_params / build_cpt_params, so they cannot be
#: rejected without changing the bench.
NO_EFFECT = {
    ("cpt_scan", "cpt.f_s_ghz"): _LEVEL_ENERGY,
    **{(protocol, f"spin_pump.{key}"): _LEVEL_ENERGY
       for protocol in ("spin_pumping", "t1_recovery")
       for key in ("f_s_ground_ghz", "f_s_excited_ghz")},
    ("t1_recovery", "spin_pump.n_pulses"): _NOT_IN_T1,
    ("t1_recovery", "spin_pump.pulse_gap_ns"): _NOT_IN_T1,
}
#: (protocol, dotted key) -> edits of the shipped config that let the key act:
#: T2* and the spin dephasing rate exclude each other, and the shipped PLE
#: scan applies no magnetic field, without which the g-factor, the orbital
#: quenching and the field axis do nothing
_IN_FIELD = {("emitters", 0, "model", "b_field_t"): [0.25, 0.0, -0.04]}
BASE_EDITS = {
    ("cpt_scan", "cpt.gamma_s_mhz"): {("cpt", "t2_star_ns"): None,
                                      ("cpt", "gamma_s_mhz"): 1.64},
    ("ple_scan", "emitters.model.axis"): _IN_FIELD,
    **{("ple_scan", f"emitters.model.{manifold}.{key}"): _IN_FIELD
       for manifold in ("ground", "excited") for key in ("quench_f", "g_spin")},
}
#: keys whose every perturbation here is rejected: a single-point axis needs
#: stop == start, so moving start, stop or points alone is invalid
ALWAYS_REJECTED = {("magnet_map", f"grid.y_mm.{key}")
                   for key in ("start", "stop", "points")}


def leaf_keys(table, blocks, path=()):
    """(key path, parser) of every leaf of `table`; a block list is entered
    at its first item."""
    for key, parse in table.items():
        if not hasattr(parse, "table"):
            yield path + (key,), parse
        elif isinstance(blocks[key], list):
            yield from leaf_keys(parse.table, blocks[key][0], path + (key, 0))
        else:
            yield from leaf_keys(parse.table, blocks[key], path + (key,))


def dotted(path):
    return ".".join(str(k) for k in path if not isinstance(k, int))


def perturbations(value, choices):
    """Nearby values of the same kind, in the order they are tried."""
    if choices is not None:
        return [c for c in sorted(choices) if c != value]
    if value is None:
        return [100.0]
    if isinstance(value, list):
        return [[c + d for c, d in zip(value, (0.1, 0.2, 0.3))]]
    if isinstance(value, int):
        return [value + 1, value - 1]
    return [value * 1.1, value * 0.9] if value else [0.1, -0.1]


def outputs(tree, tmp_path):
    run_dir = run_protocol(validate_tree(tree), out_dir=str(tmp_path)).out_dir
    return tuple(Path(run_dir, name).read_bytes()
                 for name in ("data.csv", "fits.json"))


def schema_cases():
    for protocol, table in _SCHEMAS.items():
        blocks = validate_tree(SHIPPED[protocol]).blocks
        for path, parse in leaf_keys(table, blocks):
            yield pytest.param(protocol, path, getattr(parse, "choices", None),
                               id=f"{protocol}:{dotted(path)}")


@pytest.mark.parametrize("protocol, path, choices", schema_cases())
def test_every_key_changes_the_output_or_is_rejected(tmp_path, protocol, path,
                                                     choices):
    key = (protocol, dotted(path))
    base = copy.deepcopy(SHIPPED[protocol])
    for (*owner, leaf), value in BASE_EDITS.get(key, {}).items():
        functools.reduce(operator.getitem, owner, base)[leaf] = value
    blocks = validate_tree(base).blocks
    *owner, leaf = path
    value = functools.reduce(operator.getitem, owner, blocks)[leaf]
    expected = outputs(base, tmp_path)
    accepted = 0
    for new in perturbations(value, choices):
        tree = copy.deepcopy(base)
        functools.reduce(operator.getitem, owner, tree)[leaf] = new
        try:
            validate_tree(tree)
        except ConfigError:
            continue
        accepted += 1
        changed = outputs(tree, tmp_path) != expected
        assert changed != (key in NO_EFFECT), (key, new)
    assert (accepted == 0) == (key in ALWAYS_REJECTED), key


def test_exemptions_name_schema_keys():
    keys = {(protocol, dotted(path)) for protocol, table in _SCHEMAS.items()
            for path, _ in leaf_keys(table, validate_tree(SHIPPED[protocol]).blocks)}
    assert set(NO_EFFECT) | set(BASE_EDITS) | ALWAYS_REJECTED <= keys

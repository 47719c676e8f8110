"""Every key in the config schema changes a run's output or is rejected.

The keys come from the schema tables themselves (`sivcav.config._ROOTS`), so
a key added to a table is covered without editing this file. Each key is
perturbed in the shipped config of its protocol: the perturbed config must
either fail validation or change `data.csv` or `fits.json`.
"""

import copy
import functools
import operator
from pathlib import Path

import pytest
import yaml

from sivcav.cli import main as cli_main
from sivcav.config import _NOISE, _NOISE_OK, _ROOTS, _block, validate_tree
from sivcav.errors import ConfigError, SivCavError
from sivcav.protocols import run_protocol
from test_protocols_cli import config_tree

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
#: protocol -> its shipped config tree
SHIPPED = {tree["protocol"]: tree for tree in
           (yaml.safe_load(path.read_text()) for path in CONFIGS.glob("*.cfg"))}

#: (protocol, dotted key) -> why the key validates but changes no output.
#: `bench/gen.py` writes f_s_ghz and `bench/checks.py` reads it through
#: build_cpt_params, so it cannot be rejected without changing the bench.
NO_EFFECT = {
    ("cpt_scan", "cpt.f_s_ghz"): "reaches only CptParams.f_s, which only the "
                                 "bench's oracle reads",
}
#: (protocol, dotted key) -> why a run key leaves the output bytes as they
#: are: the seed only seeds noise, and output_dir only places the files
#: (`outputs` checks that they move there)
RUN_KEYS = {
    **{(protocol, "seed"): "draws nothing without noise"
       for protocol in ("spin_pumping", "t1_recovery", "magnet_map",
                        "cooperativity_report")},
    **{(protocol, "output_dir"): "moves the files but leaves their bytes"
       for protocol in _ROOTS},
}
#: (protocol, dotted key) -> values that validate but whose run is rejected:
#: the lines of parents B and D start from ground states 2 and 3, which the
#: pump-probe model does not hold, so such a pump drives none of its lines
RUN_REJECTED = {("pump_probe_scan", "pump.parent"): {"B", "D"}}
#: (protocol, dotted key) -> edits of the shipped config that let the key act:
#: T2* and the spin dephasing rate exclude each other, the shipped PLE scan
#: applies no magnetic field, without which the g-factor, the orbital
#: quenching and the field axis do nothing, and no shipped scan draws noise,
#: without which the seed and the noise level do nothing
_IN_FIELD = {("emitters", 0, "model", "b_field_t"): [0.25, 0.0, -0.04]}
_NOISY = {("noise",): {"sigma_rel": 0.01}}
BASE_EDITS = {
    ("cpt_scan", "cpt.gamma_s_mhz"): {("cpt", "t2_star_ns"): None,
                                      ("cpt", "gamma_s_mhz"): 1.64},
    ("ple_scan", "emitters.model.axis"): _IN_FIELD,
    **{("ple_scan", f"emitters.model.{manifold}.{key}"): _IN_FIELD
       for manifold in ("ground", "excited") for key in ("quench_f", "g_spin")},
    **{(protocol, key): _NOISY for protocol in _NOISE_OK
       for key in ("seed", "noise.sigma_rel")},
}
#: keys whose every perturbation here is rejected: a single-point axis needs
#: stop == start, so moving start, stop or points alone is invalid, and each
#: protocol requires a block that no other protocol accepts
ALWAYS_REJECTED = {("magnet_map", f"grid.y_mm.{key}")
                   for key in ("start", "stop", "points")} \
    | {(protocol, "protocol") for protocol in _ROOTS}
#: (protocol, spin_pump key, a value once accepted) of keys that no run of
#: the protocol reads: no model reads the spin splittings, and a T1 run has
#: no pulse train
UNREAD = [
    *[(protocol, key, value) for protocol in ("spin_pumping", "t1_recovery")
      for key, value in (("f_s_ground_ghz", 6.8), ("f_s_excited_ghz", 7.0))],
    ("t1_recovery", "n_pulses", 3),
    ("t1_recovery", "pulse_gap_ns", 1000.0),
]


def root_table(protocol):
    """Every key of the protocol: the root keys, its blocks and, where the
    protocol accepts one, the noise block."""
    table = {key: parse for key, parse in _ROOTS[protocol].items()
             if key != "noise"}
    if protocol in _NOISE_OK:
        table["noise"] = _block(_NOISE)
    return table


def leaf_keys(table, blocks, path=()):
    """(key path, parser) of every leaf of `table`; a block list is entered
    at its first item, and a block that `blocks` lacks at no item."""
    for key, parse in table.items():
        if not hasattr(parse, "table"):
            yield path + (key,), parse
        elif isinstance(blocks.get(key), list):
            yield from leaf_keys(parse.table, blocks[key][0], path + (key, 0))
        else:
            yield from leaf_keys(parse.table, blocks.get(key, {}), path + (key,))


def dotted(path):
    return ".".join(str(k) for k in path if not isinstance(k, int))


def perturbations(value, choices):
    """Nearby values of the same kind, in the order they are tried."""
    if choices is not None:
        return [c for c in sorted(choices) if c != value]
    if value is None:
        return [100.0]
    if isinstance(value, str):
        return [value + "_moved"]
    if isinstance(value, list):
        return [[c + d for c, d in zip(value, (0.1, 0.2, 0.3))]]
    if isinstance(value, int):
        return [value + 1, value - 1]
    return [value * 1.1, value * 0.9] if value else [0.1, -0.1]


def outputs(tree):
    """data.csv and fits.json of a run of `tree`, into its output_dir under
    the working directory."""
    cfg = validate_tree(tree)
    run_dir = Path(run_protocol(cfg).out_dir)
    assert run_dir.parent == Path(cfg.output_dir)
    return tuple((run_dir / name).read_bytes()
                 for name in ("data.csv", "fits.json"))


def schema_cases():
    for protocol in _ROOTS:
        blocks = config_tree(validate_tree(SHIPPED[protocol]))
        for path, parse in leaf_keys(root_table(protocol), blocks):
            yield pytest.param(protocol, path, getattr(parse, "choices", None),
                               id=f"{protocol}:{dotted(path)}")


@pytest.mark.parametrize("protocol, path, choices", schema_cases())
def test_every_key_changes_the_output_or_is_rejected(tmp_path, monkeypatch,
                                                     protocol, path, choices):
    monkeypatch.chdir(tmp_path)
    key = (protocol, dotted(path))
    base = copy.deepcopy(SHIPPED[protocol])
    for (*owner, leaf), value in BASE_EDITS.get(key, {}).items():
        functools.reduce(operator.getitem, owner, base)[leaf] = value
    blocks = config_tree(validate_tree(base))
    *owner, leaf = path
    value = functools.reduce(operator.getitem, owner, blocks)[leaf]
    expected = outputs(base)
    accepted = 0
    for new in perturbations(value, choices):
        tree = copy.deepcopy(base)
        functools.reduce(operator.getitem, owner, tree)[leaf] = new
        try:
            validate_tree(tree)
        except ConfigError:
            continue
        accepted += 1
        if new in RUN_REJECTED.get(key, ()):
            with pytest.raises(SivCavError, match="drives no line"):
                outputs(tree)
            continue
        changed = outputs(tree) != expected
        assert changed != (key in NO_EFFECT or key in RUN_KEYS), (key, new)
    assert (accepted == 0) == (key in ALWAYS_REJECTED), key


def test_exemptions_name_schema_keys():
    keys = {(protocol, dotted(path)) for protocol in _ROOTS
            for path, _ in leaf_keys(root_table(protocol),
                                     config_tree(validate_tree(SHIPPED[protocol])))}
    assert set(NO_EFFECT) | set(RUN_KEYS) | set(BASE_EDITS) | set(RUN_REJECTED) \
        | ALWAYS_REJECTED <= keys


@pytest.mark.parametrize("protocol, key, value", UNREAD)
def test_keys_a_protocol_does_not_read_are_unknown(tmp_path, capsys, protocol,
                                                   key, value):
    tree = copy.deepcopy(SHIPPED[protocol])
    tree["spin_pump"][key] = value
    path = tmp_path / "unread.cfg"
    path.write_text(yaml.safe_dump(tree))
    rc = cli_main(["validate", str(path)])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: unknown key(s) [{key!r}]; valid keys here: ")
    assert err.endswith("(field: spin_pump)\n")
    assert len(err.splitlines()) == 1

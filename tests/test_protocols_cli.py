import copy
import functools
import json
import math
import operator
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from sivcav.cli import main as cli_main
from sivcav.config import ProtocolConfig, load_config, validate_tree
from sivcav.errors import ConfigError
from sivcav.protocols import build_siv_model, run_protocol
from sivcav.siv_levels import transition_table

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"

MINIMAL_CPT = {
    "protocol": "cpt_scan",
    "cpt": {
        "rabi_pump_mhz": 3.0,
        "rabi_probe_mhz": 3.0,
        "optical_rate_mhz": 157.0,
        "t2_star_ns": 97.0,
    },
    "scan": {"span_mhz": 10.0, "points": 31},
}

# (file, substring the error message must contain)
MALFORMED = [
    ("01_unknown_protocol.cfg", "protocol"),
    ("02_missing_block.cfg", "cpt"),
    ("03_negative_rate.cfg", "spin_pump.t1_ns"),
    ("04_unknown_key.cfg", "laser_power_mw"),
    ("05_bad_type.cfg", "synthetic.kappa_ghz"),
    ("06_eta_out_of_range.cfg", "spin_pump.eta"),
    ("07_scan_backwards.cfg", "scan"),
    ("08_both_t2_and_gamma.cfg", "cpt"),
    ("09_zero_dimensions.cfg", "dimensions_mm"),
    ("10_noise_not_allowed.cfg", "noise"),
]

DELETE = object()  # an edit that removes a node

# sivcav modules any `sivcav run` loads, and those each protocol adds to them
RUN_MODULES = {"sivcav", "sivcav.cli", "sivcav.config", "sivcav.errors",
               "sivcav.protocols", "sivcav._table", "sivcav.constants"}
_DYNAMICS = {"sivcav.dynamics", "sivcav.dynamics.engine",
             "sivcav.dynamics.experiments", "sivcav.spectrum"}
_FITTING = {"sivcav.fitting", "sivcav.spectrum"}
PROTOCOL_MODULES = {
    "ple_scan": _DYNAMICS | {"sivcav.siv_levels"},
    "pump_probe_scan": _DYNAMICS | {"sivcav.siv_levels"},
    "spin_pumping": _DYNAMICS | _FITTING,
    "t1_recovery": _DYNAMICS | _FITTING,
    "cpt_scan": _DYNAMICS | _FITTING,
    "cavity_fit": {"sivcav.cqed"} | _FITTING,
    "saturation_study": _FITTING,
    "magnet_map": {"sivcav.magnetics"},
    "cooperativity_report": {"sivcav.cqed"},
}
SHIPPED = sorted(p.name for p in CONFIGS.glob("*.cfg"))
# the shipped configs that draw noise: both set synthetic.noise_rel > 0
DRAWS_NOISE = {"fig1_cavity_fit.cfg", "fig3_saturation.cfg"}


def write_cfg(tmp_path, tree, name="test.cfg"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree))
    return str(path)


def config_tree(cfg):
    """The configuration tree that `cfg` echoes: its run keys and blocks."""
    return {"protocol": cfg.protocol, "seed": cfg.seed,
            "output_dir": cfg.output_dir, **cfg.blocks}


def edited(name, *leaves):
    """The tree of shipped config `name` with each leaf = (*path, key, value) set."""
    tree = yaml.safe_load((CONFIGS / f"{name}.cfg").read_text())
    for *path, key, value in leaves:
        functools.reduce(operator.getitem, path, tree)[key] = value
    return tree


def child_env():
    """Environment of a fresh `sivcav` interpreter: this checkout's sources,
    and stdout block-buffered as most users have it (no PYTHONUNBUFFERED)."""
    import sivcav

    env = dict(os.environ,
               PYTHONPATH=str(Path(sivcav.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_cli(*args):
    """`python -m sivcav.cli <args>` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "sivcav.cli", *args],
                          capture_output=True, text=True, env=child_env(),
                          cwd=str(REPO))


def shuffled(tree, rnd):
    """The same tree with the keys of every mapping in a random order."""
    if isinstance(tree, dict):
        keys = list(tree)
        rnd.shuffle(keys)
        return {k: shuffled(tree[k], rnd) for k in keys}
    if isinstance(tree, list):
        return [shuffled(v, rnd) for v in tree]
    return tree


def leaf_paths(tree, path=()):
    """Key/index paths of every scalar in a nested dict/list tree."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return [path]
    return [p for k, v in items for p in leaf_paths(v, path + (k,))]


def changed(value):
    """A different value of the same type; floats move by one ulp."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return math.nextafter(value, math.inf)
    if isinstance(value, str):
        return value + "x"
    assert value is None
    return 0


class TestConfigLoading:
    def test_every_schema_protocol_has_a_runner(self):
        # a protocol in the schema without a runner would validate and then
        # fail `run` with a KeyError traceback
        from sivcav import config, protocols

        assert config.PROTOCOLS == tuple(config._SCHEMAS) \
            == tuple(protocols._RUNNERS)

    def test_minimal_cpt_parses_with_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL_CPT))
        assert cfg.protocol == "cpt_scan"
        assert cfg.seed == 0
        assert cfg.blocks["cpt"]["f_s_ghz"] == 6.8
        assert cfg.blocks["cpt"]["detuning_split"] == "symmetric"

    @pytest.mark.parametrize("name", SHIPPED)
    def test_echo_round_trip_lossless(self, name):
        cfg = load_config(str(CONFIGS / name))
        echoed = validate_tree(config_tree(cfg))
        assert echoed.config_hash() == cfg.config_hash()
        assert echoed.blocks == cfg.blocks

    def test_hash_stable_under_key_reordering(self, tmp_path):
        reordered = {
            "scan": {"points": 31, "span_mhz": 10.0},
            "cpt": {
                "t2_star_ns": 97.0,
                "optical_rate_mhz": 157.0,
                "rabi_probe_mhz": 3.0,
                "rabi_pump_mhz": 3.0,
            },
            "protocol": "cpt_scan",
        }
        a = load_config(write_cfg(tmp_path, MINIMAL_CPT, "a.cfg"))
        b = load_config(write_cfg(tmp_path, reordered, "b.cfg"))
        assert a.config_hash() == b.config_hash()

    @pytest.mark.parametrize("name", SHIPPED)
    def test_loaded_config_is_its_validated_tree(self, name):
        # loading from a file records nothing that the tree does not hold
        tree = yaml.safe_load((CONFIGS / name).read_text())
        assert load_config(str(CONFIGS / name)) == validate_tree(tree)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(SHIPPED),
           rnd=st.randoms(), pick=st.integers(0, 10 ** 6))
    def test_hash_sees_every_leaf_but_no_key_order(self, name, rnd, pick):
        cfg = load_config(str(CONFIGS / name))
        tree = yaml.safe_load((CONFIGS / name).read_text())
        assert validate_tree(shuffled(tree, rnd)).config_hash() == cfg.config_hash()
        reordered = ProtocolConfig(cfg.protocol, cfg.seed, shuffled(cfg.blocks, rnd))
        assert reordered.config_hash() == cfg.config_hash()
        paths = leaf_paths(cfg.blocks)
        path = paths[pick % len(paths)]
        blocks = copy.deepcopy(cfg.blocks)
        owner = functools.reduce(operator.getitem, path[:-1], blocks)
        owner[path[-1]] = changed(owner[path[-1]])
        altered = ProtocolConfig(cfg.protocol, cfg.seed, blocks)
        assert altered.config_hash() != cfg.config_hash(), path

    def test_negative_rate_names_field(self, tmp_path):
        bad = dict(MINIMAL_CPT, cpt=dict(MINIMAL_CPT["cpt"], optical_rate_mhz=-3.0))
        with pytest.raises(ConfigError, match="cpt.optical_rate_mhz"):
            load_config(write_cfg(tmp_path, bad))

    def test_unknown_key_lists_valid_keys(self, tmp_path):
        bad = dict(MINIMAL_CPT, extra_block=1)
        with pytest.raises(ConfigError, match="valid keys"):
            load_config(write_cfg(tmp_path, bad))

    def test_missing_block_names_requirement(self, tmp_path):
        bad = {k: v for k, v in MINIMAL_CPT.items() if k != "cpt"}
        with pytest.raises(ConfigError, match="cpt"):
            load_config(write_cfg(tmp_path, bad))

    @pytest.mark.parametrize("shipped", ["fig1_cavity_fit.cfg",
                                         "fig3_saturation.cfg"])
    def test_noise_block_rejected_where_it_has_no_effect(self, tmp_path, shipped):
        # these protocols draw their noise from synthetic.noise_rel only
        tree = yaml.safe_load((CONFIGS / shipped).read_text())
        tree["noise"] = {"sigma_rel": 0.5}
        with pytest.raises(ConfigError, match="noise"):
            load_config(write_cfg(tmp_path, tree))

    def test_single_point_axis_needs_stop_equal_to_start(self, tmp_path):
        # one point samples `start` only, so a different `stop` has no effect
        tree = yaml.safe_load((CONFIGS / "fig2_magnet_map.cfg").read_text())
        assert tree["grid"]["y_mm"] == {"start": 0.0, "stop": 0.0, "points": 1}
        load_config(write_cfg(tmp_path, tree))
        tree["grid"]["y_mm"]["stop"] = 1.0
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, tree))
        assert str(err.value) == ("stop must equal start for single-point axes "
                                  "(field: grid.y_mm)")
        assert err.value.field == "grid.y_mm"

    # one case per kind of error: (shipped config, path of the edited node,
    # its new value or DELETE, the exact message)
    @pytest.mark.parametrize("name, path, value, message", [
        ("fig4_cpt", ("cpt", "rabi_pump_mhz"), DELETE,
         "missing required field (field: cpt.rabi_pump_mhz)"),
        ("fig4_cpt", ("protocol",), DELETE, "missing required field (field: protocol)"),
        ("fig4_cpt", ("scan",), DELETE, "missing required block (field: scan)"),
        ("fig4_cpt", ("cpt",), 5, "expected a mapping, got int (field: cpt)"),
        ("fig1_ple", ("emitters", 1), "x",
         "expected a mapping, got str (field: emitters[1])"),
        ("fig4_cpt", ("noise",), None, "expected a mapping, got NoneType (field: noise)"),
        ("fig1_ple", ("emitters",), [],
         "expected a non-empty list of mappings (field: emitters)"),
        ("fig4_cpt", ("cpt", "optical_rate_mhz"), "fast",
         "expected a finite number, got 'fast' (field: cpt.optical_rate_mhz)"),
        ("fig4_cpt", ("cpt", "optical_rate_mhz"), math.inf,
         "expected a finite number, got inf (field: cpt.optical_rate_mhz)"),
        ("fig4_cpt", ("cpt", "optical_rate_mhz"), True,
         "expected a finite number, got True (field: cpt.optical_rate_mhz)"),
        ("fig2_pump_probe", ("pump", "line"), 2,
         "expected a string, got 2 (field: pump.line)"),
        ("fig4_cpt", ("output_dir",), None, "expected a string, got None (field: output_dir)"),
        ("fig2_magnet_map", ("pcc_mm",), [1, 2],
         "expected a 3-vector of numbers, got [1, 2] (field: pcc_mm)"),
        ("fig4_cpt", ("cpt", "optical_rate_mhz"), 0,
         "must be positive, got 0.0 (field: cpt.optical_rate_mhz)"),
        ("fig4_cpt", ("cpt", "rabi_pump_mhz"), -1,
         "must be >= 0.0, got -1.0 (field: cpt.rabi_pump_mhz)"),
        ("fig4_cpt", ("scan", "points"), 4, "must be >= 5, got 4.0 (field: scan.points)"),
        ("fig4_spin_pumping", ("spin_pump", "eta"), 1.5,
         "must be <= 1.0, got 1.5 (field: spin_pump.eta)"),
        ("fig4_cpt", ("scan", "points"), 31.5,
         "expected an integer, got 31.5 (field: scan.points)"),
        ("fig4_cpt", ("cpt", "detuning_split"), "left",
         "must be one of ['probe', 'symmetric'], got 'left' (field: cpt.detuning_split)"),
        ("fig4_cpt", ("protocol",), "ple",
         "must be one of ['cavity_fit', 'cooperativity_report', 'cpt_scan', "
         "'magnet_map', 'ple_scan', 'pump_probe_scan', 'saturation_study', "
         "'spin_pumping', 't1_recovery'], got 'ple' (field: protocol)"),
        ("fig4_cpt", ("cpt", "rabi_mhz"), 3.0,
         "unknown key(s) ['rabi_mhz']; valid keys here: ['detuning_split', "
         "'f_s_ghz', 'gamma_s_mhz', 'optical_rate_mhz', 'rabi_probe_mhz', "
         "'rabi_pump_mhz', 't2_star_ns'] (field: cpt)"),
        ("fig4_cpt", ("span_mhz",), 10.0,
         "unknown key(s) ['span_mhz']; valid keys here: ['cpt', 'noise', "
         "'output_dir', 'protocol', 'scan', 'seed'] (field: <root>)"),
        ("fig1_ple", ("scan", "stop_thz"), 406.5,
         "stop_thz must exceed start_thz (field: scan)"),
        ("fig4_cpt", ("cpt", "gamma_s_mhz"), 1.64,
         "exactly one of t2_star_ns or gamma_s_mhz must be set (field: cpt)"),
        ("fig4_cpt", ("cpt", "t2_star_ns"), None,
         "exactly one of t2_star_ns or gamma_s_mhz must be set (field: cpt)"),
        ("fig2_magnet_map", ("magnets", 1, "dimensions_mm"), [1.0, 0.0, 1.0],
         "all dimensions must be positive (field: magnets[1].dimensions_mm)"),
        ("fig2_magnet_map", ("grid", "x_mm", "stop"), -20.0,
         "stop must exceed start for multi-point axes (field: grid.x_mm)"),
        ("fig2_magnet_map", ("grid", "y_mm", "stop"), 1.0,
         "stop must equal start for single-point axes (field: grid.y_mm)"),
        ("cooperativity_report", ("noise",), {"sigma_rel": 0.1},
         "protocol 'cooperativity_report' does not accept a noise block "
         "(field: noise)"),
        ("fig4_cpt", ("noise",), {}, "missing required field (field: noise.sigma_rel)"),
        # every count has a maximum: the memory budget over the bytes per
        # point of the largest array its protocol allocates
        ("fig1_ple", ("scan", "points"), 1e300,
         "must be <= 134217728, got 1e+300 (field: scan.points)"),
        ("fig2_pump_probe", ("scan", "points"), 1e300,
         "must be <= 262144, got 1e+300 (field: scan.points)"),
        ("fig4_cpt", ("scan", "points"), 828505,
         "must be <= 828504, got 828505.0 (field: scan.points)"),
        ("fig4_t1", ("taus", "points"), 1e300,
         "must be <= 4194304, got 1e+300 (field: taus.points)"),
        ("fig4_spin_pumping", ("spin_pump", "n_pulses"), 1e300,
         "must be <= 4194304, got 1e+300 (field: spin_pump.n_pulses)"),
        ("fig4_spin_pumping", ("spin_pump", "samples_per_pulse"), 1e300,
         "must be <= 4194304, got 1e+300 (field: spin_pump.samples_per_pulse)"),
        ("fig4_spin_pumping", ("spin_pump", "n_pulses"), 20000,
         "n_pulses * samples_per_pulse is 8000000, more than the 4194304 "
         "samples that fit the memory budget (field: spin_pump)"),
        ("fig1_cavity_fit", ("synthetic", "points"), 1e300,
         "must be <= 33554432, got 1e+300 (field: synthetic.points)"),
        ("fig3_saturation", ("synthetic", "points"), 1e300,
         "must be <= 67108864, got 1e+300 (field: synthetic.points)"),
        ("fig2_magnet_map", ("grid", "y_mm", "points"), 1e300,
         "must be <= 44739242, got 1e+300 (field: grid.y_mm.points)"),
        ("fig2_magnet_map", ("grid", "z_mm", "points"), 2_000_000,
         "grid has 82000000 points, more than the 44739242 that fit the "
         "memory budget (field: grid)"),
    ])
    def test_error_messages_are_exact(self, name, path, value, message):
        tree = yaml.safe_load((CONFIGS / f"{name}.cfg").read_text())
        *owner, key = path
        owner = functools.reduce(operator.getitem, owner, tree)
        if value is DELETE:
            del owner[key]
        else:
            owner[key] = value
        with pytest.raises(ConfigError) as err:
            validate_tree(tree)
        assert str(err.value) == message

    def test_integer_leaves_keep_their_exact_value(self, tmp_path):
        hashes = set()
        for seed in (2 ** 53, 2 ** 53 + 1):
            cfg = load_config(write_cfg(tmp_path, dict(MINIMAL_CPT, seed=seed)))
            assert (type(cfg.seed), cfg.seed) == (int, seed)
            hashes.add(cfg.config_hash())
        assert len(hashes) == 2
        tree = dict(MINIMAL_CPT, scan={"span_mhz": 10.0, "points": 31.0})
        points = load_config(write_cfg(tmp_path, tree)).blocks["scan"]["points"]
        assert (type(points), points) == (int, 31)

    def test_merge_keys_may_override_but_keys_may_not_repeat(self, tmp_path):
        # the third emitter merges the second, which merged the first
        text = """
            protocol: ple_scan
            emitters:
              - &first
                model: {ground: {lambda_so_ghz: 46.0},
                        excited: {lambda_so_ghz: 255.0}, zpl_center_thz: 406.8}
                linewidth_mhz: 180.0
                rabi_mhz: 25.0
              - &second
                <<: *first
                linewidth_mhz: 250.0
              - <<: *second
                rabi_mhz: 30.0
            scan: {start_thz: 406.6, stop_thz: 406.7, points: 11}
            """
        path = tmp_path / "merge.cfg"
        path.write_text(textwrap.dedent(text))
        emitters = load_config(str(path)).blocks["emitters"]
        assert [(e["linewidth_mhz"], e["rabi_mhz"]) for e in emitters] == [
            (180.0, 25.0), (250.0, 25.0), (250.0, 30.0)]
        assert emitters[2]["model"] == emitters[0]["model"]
        path.write_text(textwrap.dedent(text).replace(
            "rabi_mhz: 30.0", "rabi_mhz: 30.0\n    rabi_mhz: 35.0"))
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert str(err.value) == f"cannot parse {path} at line 14: duplicate key 'rabi_mhz'"

    @pytest.mark.parametrize("name,needle", MALFORMED)
    def test_curated_malformed_set(self, name, needle):
        with pytest.raises(ConfigError) as err:
            load_config(str(CONFIGS / "malformed" / name))
        assert needle in str(err.value)

    def test_all_shipped_configs_valid(self):
        for path in sorted(CONFIGS.glob("*.cfg")):
            cfg = load_config(str(path))
            assert cfg.protocol in path.read_text()


class TestRunProtocol:
    def test_deterministic_outputs(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL_CPT))
        m1 = run_protocol(cfg, out_dir=str(tmp_path / "r1"))
        m2 = run_protocol(cfg, out_dir=str(tmp_path / "r2"))
        for name in ("data.csv", "fits.json"):
            b1 = (Path(m1.out_dir) / name).read_bytes()
            b2 = (Path(m2.out_dir) / name).read_bytes()
            assert b1 == b2

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL_CPT))
        m1 = run_protocol(cfg, out_dir=str(tmp_path / "o"), seed=1)
        m2 = run_protocol(cfg, out_dir=str(tmp_path / "o"), seed=2)
        assert m1.out_dir != m2.out_dir

    @pytest.mark.parametrize("name", sorted(set(SHIPPED) - DRAWS_NOISE))
    def test_seed_changes_nothing_without_noise(self, tmp_path, name):
        cfg = load_config(str(CONFIGS / name))
        m0 = run_protocol(cfg, out_dir=str(tmp_path), seed=0)
        m3 = run_protocol(cfg, out_dir=str(tmp_path), seed=3)
        assert m0.out_dir != m3.out_dir
        for out in ("data.csv", "fits.json"):
            assert (Path(m0.out_dir) / out).read_bytes() \
                == (Path(m3.out_dir) / out).read_bytes()

    def test_singular_covariance_is_not_convergence(self, tmp_path):
        # 20 MHz drives on a 222 MHz span: the dip falls between samples
        # 1.85 MHz apart, its width and centre columns of the Jacobian
        # vanish, and the gradient test alone would call the collapsed
        # fit (width 3.85e-235 MHz) converged; its covariance is singular,
        # so its sigma is null, not 0, and the width is unidentifiable
        from sivcav.fitting import CPT_DIP, Spectrum, lm_fit

        tree = yaml.safe_load((CONFIGS / "fig4_cpt.cfg").read_text())
        tree["cpt"]["rabi_pump_mhz"] = tree["cpt"]["rabi_probe_mhz"] = 20.0
        tree["scan"]["span_mhz"] = 222.0
        manifest = run_protocol(load_config(write_cfg(tmp_path, tree)),
                                out_dir=str(tmp_path))
        fits = json.loads((Path(manifest.out_dir) / "fits.json").read_text())
        assert fits["cpt_dip"]["dip_fwhm_mhz"] < 1e-200
        assert fits["cpt_dip"]["dip_fwhm_sigma_mhz"] is None
        assert fits["cpt_dip"]["converged"] is False
        x, y = np.loadtxt(Path(manifest.out_dir) / "data.csv", delimiter=",",
                          skiprows=1, unpack=True)
        assert lm_fit(CPT_DIP, Spectrum(x, y)).flags == ("singular_covariance",
                                                        "width_unidentifiable")

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("name", ["fig1_cavity_fit.cfg", "fig3_saturation.cfg",
                                      "fig4_cpt.cfg"])
    def test_noise_is_the_first_draw_of_a_fresh_generator(self, tmp_path, name,
                                                          seed):
        tree = yaml.safe_load((CONFIGS / name).read_text())
        if name == "fig4_cpt.cfg":
            tree["noise"] = {"sigma_rel": 0.05}
            clean_tree = {k: v for k, v in tree.items() if k != "noise"}
        else:
            clean_tree = copy.deepcopy(tree)
            clean_tree["synthetic"]["noise_rel"] = 0.0

        def values(t, label):
            cfg = load_config(write_cfg(tmp_path, t, f"{label}.cfg"))
            run_dir = run_protocol(cfg, out_dir=str(tmp_path / label),
                                   seed=seed).out_dir
            return np.loadtxt(Path(run_dir) / "data.csv", delimiter=",",
                              skiprows=1, usecols=1)

        clean, noisy = values(clean_tree, "clean"), values(tree, "noisy")
        z = np.random.default_rng(seed).normal(size=clean.shape)
        if name == "fig1_cavity_fit.cfg":
            s = tree["synthetic"]
            expected = clean + s["noise_rel"] * s["amplitude"] * z
        elif name == "fig3_saturation.cfg":
            expected = clean * (1.0 + tree["synthetic"]["noise_rel"] * z)
        else:
            scale = tree["noise"]["sigma_rel"] * np.max(np.abs(clean))
            expected = clean + scale * z
        # data.csv keeps 13 significant digits of both columns
        np.testing.assert_allclose(noisy, expected, rtol=1e-10,
                                   atol=1e-10 * np.max(np.abs(clean)))

    def test_manifest_contents(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL_CPT))
        manifest = run_protocol(cfg, out_dir=str(tmp_path / "o"))
        payload = json.loads((Path(manifest.out_dir) / "manifest.json").read_text())
        assert payload["protocol"] == "cpt_scan"
        assert payload["config_hash"] == cfg.config_hash()
        assert set(payload["outputs"]) == {"data.csv", "fits.json"}
        assert payload["started"] <= payload["finished"]

    def test_cooperativity_report_values(self, tmp_path):
        cfg = load_config(str(CONFIGS / "cooperativity_report.cfg"))
        manifest = run_protocol(cfg, out_dir=str(tmp_path / "o"))
        fits = json.loads((Path(manifest.out_dir) / "fits.json").read_text())
        report = fits["cooperativity_report"]
        assert report["cooperativity"] == pytest.approx(0.293, abs=0.01)
        assert report["g_ghz"] == pytest.approx(1.77, abs=0.05)

    def test_cavity_fit_data_is_the_fitted_line_shape(self, tmp_path):
        # one Lorentzian formula: the synthetic transmission is the fitted
        # model bit for bit (a second formula missed it in the last bit at 247
        # of these 401 points)
        from sivcav.fitting import LORENTZIAN
        from sivcav.protocols import _RUNNERS

        tree = edited("fig1_cavity_fit", ("synthetic", "amplitude", 1.3),
                      ("synthetic", "noise_rel", 0.0))
        nu, y = _RUNNERS["cavity_fit"](load_config(write_cfg(tmp_path, tree))).columns
        assert np.array_equal(y, LORENTZIAN.func(nu, (406.8e12, 273e9, 1.3, 0.05)))

    def test_magnet_map_pcc_field(self, tmp_path):
        cfg = load_config(str(CONFIGS / "fig2_magnet_map.cfg"))
        manifest = run_protocol(cfg, out_dir=str(tmp_path / "o"))
        fits = json.loads((Path(manifest.out_dir) / "fits.json").read_text())
        assert fits["pcc"]["magnitude_t"] > 0.25
        data = (Path(manifest.out_dir) / "data.csv").read_text().splitlines()
        assert data[0] == "x_m,y_m,z_m,bx_t,by_t,bz_t,masked"
        masked = [row for row in data[1:] if row.endswith(",1")]
        assert masked  # grid crosses the magnet volumes

    @pytest.mark.parametrize("b_field_t", [[0.0, 0.0, 0.0], None])
    def test_pump_probe_spin_splitting_is_the_models(self, tmp_path, b_field_t):
        # at zero field and at the shipped field
        tree = yaml.safe_load((CONFIGS / "fig2_pump_probe.cfg").read_text())
        tree["scan"]["points"] = 21
        if b_field_t is not None:
            tree["emitter"]["model"]["b_field_t"] = b_field_t
        cfg = load_config(write_cfg(tmp_path, tree))
        manifest = run_protocol(cfg, out_dir=str(tmp_path / "o"))
        fits = json.loads((Path(manifest.out_dir) / "fits.json").read_text())
        expected = transition_table(build_siv_model(cfg.blocks["emitter"]["model"]))
        assert expected.spin_resolved == (b_field_t is None)
        assert fits["spin_splitting_ghz"] == {
            "f_s_ground": expected.f_s_ground / 1e9,
            "f_s_excited": expected.f_s_excited / 1e9,
            "degenerate": not expected.spin_resolved}

    # the plain norm of the first axis overflowed, which made the axis
    # (0, 0, 0) after two RuntimeWarnings; that of the second underflowed,
    # which rejected the axis as zero
    @pytest.mark.parametrize("axis", [[1.0e300, 0.46947, 0.0], [1.0e-300, 0.0, 0.0]])
    def test_huge_or_tiny_axis_runs_as_its_direction(self, tmp_path, capsys, axis):
        splits = []
        for a in (axis, [1.0, 0.0, 0.0]):
            tree = edited("fig2_pump_probe", ("emitter", "model", "axis", a),
                          ("scan", "points", 21))
            rc = cli_main(["run", write_cfg(tmp_path, tree),
                           "--out", str(tmp_path / "o")])
            out, err = capsys.readouterr()
            assert (rc, err) == (0, "")
            fits = json.loads(Path(out.strip(), "fits.json").read_text())
            splits.append([fits["spin_splitting_ghz"][key]
                           for key in ("f_s_ground", "f_s_excited")])
        assert splits[0] == pytest.approx(splits[1], rel=1e-12)
        assert splits[1] == pytest.approx([7.6142, 7.4008], abs=1e-4)

    def test_zero_field_pump_probe_stays_in_the_lower_ground_branch(
            self, tmp_path, monkeypatch):
        # at zero field the two lower-branch ground states share one energy;
        # every template drives lines of the table from ground states 0 and 1
        # and relaxes into those two only, never the upper orbital branch
        import sivcav.dynamics.experiments as experiments
        from sivcav.protocols import build_ple_emitter

        templates = []
        solve = experiments.detuned_steady_states

        def collecting_solve(template, detunings):
            templates.append(template)
            return solve(template, detunings)

        monkeypatch.setattr(experiments, "detuned_steady_states", collecting_solve)
        tree = edited("fig2_pump_probe",
                      ("emitter", "model", "b_field_t", [0.0, 0.0, 0.0]),
                      ("scan", "points", 61))
        cfg = load_config(write_cfg(tmp_path, tree))
        run_protocol(cfg, out_dir=str(tmp_path))
        table = build_ple_emitter(cfg.blocks["emitter"]).table
        lines = {(f"g{t.ground_state}", f"e{t.excited_state}")
                 for t in table.sublevel}
        assert templates
        for template in templates:
            drives = {(d.lower, d.upper) for d in template.drives}
            assert drives and drives <= lines
            grounds = ({d.lower for d in template.drives}
                       | {d.target for d in template.decays})
            assert grounds == {"g0", "g1"}
            assert all(lv.energy == 0.0 for lv in template.levels)

    def test_pump_only_rows_are_solved_once(self, tmp_path, monkeypatch):
        # the shipped scan's points that drive only the pump line (72 of 481)
        # share one steady state, solved as one row
        import sivcav.dynamics.experiments as experiments

        rows = []
        solve = experiments.detuned_steady_states

        def counting_solve(template, detunings):
            rows.append(len(detunings))
            return solve(template, detunings)

        monkeypatch.setattr(experiments, "detuned_steady_states", counting_solve)
        run_protocol(load_config(str(CONFIGS / "fig2_pump_probe.cfg")),
                     out_dir=str(tmp_path))
        assert sum(rows) == 410

    def test_failed_run_leaves_no_partial_dir(self, tmp_path, monkeypatch):
        import sivcav.protocols as protocols_mod

        def boom(cfg):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(protocols_mod._RUNNERS, "cpt_scan", boom)
        cfg = load_config(write_cfg(tmp_path, MINIMAL_CPT))
        out = tmp_path / "out"
        with pytest.raises(RuntimeError):
            run_protocol(cfg, out_dir=str(out))
        assert not any(out.glob("cpt_scan-*"))

    def test_table_without_formats_is_written_at_12_digits(self, tmp_path,
                                                          monkeypatch):
        import sivcav.protocols as protocols_mod

        columns = [np.array([0.0, -0.0, 1.0, np.nan]),
                   np.array([np.inf, 5e-324, -0.1, 1e300])]
        monkeypatch.setitem(protocols_mod._RUNNERS, "cpt_scan", lambda cfg:
                            protocols_mod._Table(["a", "b"], columns, {"k": 0.5}))
        run_dir = Path(run_protocol(load_config(write_cfg(tmp_path, MINIMAL_CPT)),
                                    out_dir=str(tmp_path)).out_dir)
        rows = [f"{u:.12e},{v:.12e}" for u, v in zip(*columns)]
        assert (run_dir / "data.csv").read_text() == "\n".join(["a,b", *rows]) + "\n"
        assert json.loads((run_dir / "fits.json").read_text()) == {"k": 0.5}

    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_mid_stream_leaves_no_partial_file(self, tmp_path,
                                                       monkeypatch, existing):
        # the second row block fails after the first was written to the temp
        # file: the temp file goes, and so does the run directory if the run
        # made it
        import sivcav._table as table_mod
        import sivcav.protocols as protocols_mod

        n = 3 * table_mod._BLOCK_ROWS
        monkeypatch.setitem(protocols_mod._RUNNERS, "cpt_scan", lambda cfg:
                            protocols_mod._Table(["x"], [np.arange(n) / n], {}))
        block_text, blocks = table_mod._block_text, []

        def failing_second_block(*args):
            blocks.append(block_text(*args))
            if len(blocks) == 2:
                raise RuntimeError("synthetic failure")
            return blocks[-1]

        monkeypatch.setattr(table_mod, "_block_text", failing_second_block)
        cfg = load_config(write_cfg(tmp_path, MINIMAL_CPT))
        out = tmp_path / "out"
        run_dir = out / f"cpt_scan-{cfg.config_hash()[:8]}"
        if existing:
            run_dir.mkdir(parents=True)
        with pytest.raises(RuntimeError, match="synthetic failure"):
            run_protocol(cfg, out_dir=str(out))
        assert len(blocks) == 2
        assert run_dir.is_dir() == existing
        assert not existing or list(run_dir.iterdir()) == []

    def test_magnet_map_memory_is_bounded(self, tmp_path):
        # the traced peak of a field-map run beyond its points, fields and
        # mask (49 B per grid point): under 32 MB at 1M points, and within
        # 4 MB of the peak at 100k points, so it does not grow with the grid
        import shutil
        import tracemalloc

        tree = yaml.safe_load((CONFIGS / "fig2_magnet_map.cfg").read_text())

        def excess_peak(nx, nz):
            tree["grid"]["x_mm"]["points"], tree["grid"]["z_mm"]["points"] = nx, nz
            cfg = validate_tree(tree)
            tracemalloc.start()
            try:
                run_dir = run_protocol(cfg, out_dir=str(tmp_path)).out_dir
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert Path(run_dir, "data.csv").stat().st_size > 90 * nx * nz
            shutil.rmtree(run_dir)
            return peak - 49 * nx * nz

        large, small = excess_peak(1001, 1001), excess_peak(317, 317)
        assert large <= 32e6
        assert abs(large - small) <= 4e6

    def test_config_output_dir_honored(self, tmp_path):
        tree = dict(MINIMAL_CPT, output_dir=str(tmp_path / "from_config"))
        cfg = load_config(write_cfg(tmp_path, tree))
        manifest = run_protocol(cfg)
        assert manifest.out_dir.startswith(str(tmp_path / "from_config"))


class TestGoldenOutputs:
    """Output schemas are stable: runs reproduce checked-in golden files."""

    GOLDEN = REPO / "tests" / "golden"

    def test_cooperativity_report_golden(self, tmp_path):
        cfg = load_config(str(CONFIGS / "cooperativity_report.cfg"))
        manifest = run_protocol(cfg, out_dir=str(tmp_path))
        for name, golden in (("data.csv", "cooperativity_report_data.csv"),
                             ("fits.json", "cooperativity_report_fits.json")):
            produced = (Path(manifest.out_dir) / name).read_bytes()
            expected = (self.GOLDEN / golden).read_bytes()
            assert produced == expected

    def test_magnet_map_small_grid_golden(self, tmp_path):
        cfg = validate_tree({
            "protocol": "magnet_map",
            "magnets": [{"center_mm": [0.0, 0.0, 0.0],
                         "dimensions_mm": [10.0, 10.0, 10.0],
                         "remanence_t": [1.35, 0.0, 0.0]}],
            "grid": {"x_mm": {"start": -15.0, "stop": 15.0, "points": 3},
                     "y_mm": {"start": 0.0, "stop": 0.0, "points": 1},
                     "z_mm": {"start": -15.0, "stop": 15.0, "points": 3}},
            "pcc_mm": [12.0, 0.0, 0.0],
        })
        manifest = run_protocol(cfg, out_dir=str(tmp_path))
        for name, golden in (("data.csv", "magnet_map_small_data.csv"),
                             ("fits.json", "magnet_map_small_fits.json")):
            produced = (Path(manifest.out_dir) / name).read_bytes()
            expected = (self.GOLDEN / golden).read_bytes()
            assert produced == expected


class TestCli:
    def test_validate_ok_exit_zero(self):
        assert cli_main(["validate", str(CONFIGS / "fig4_cpt.cfg")]) == 0

    def test_validate_malformed_exit_one(self, capsys):
        rc = cli_main(["validate", str(CONFIGS / "malformed" / "03_negative_rate.cfg")])
        assert rc == 1
        assert "t1_ns" in capsys.readouterr().err

    def test_missing_file_exit_two_with_path(self, capsys):
        rc = cli_main(["run", "/nonexistent/path.cfg"])
        assert rc == 2
        assert "/nonexistent/path.cfg" in capsys.readouterr().err

    def test_unwritable_output_path_exit_two(self, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        rc = cli_main(["run", str(CONFIGS / "cooperativity_report.cfg"),
                       "--out", str(not_a_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    # leaves (path, then value) that pass validation at 1e300, or as a
    # timescale at 1e-300 (a rate of about 1e308 Hz), but break the physics:
    # each run ends in one `error:` line and exit 2, not a traceback
    @pytest.mark.parametrize("name, leaf", [
        ("cooperativity_report", ("cooperativity", "detuning_over_kappa", 1e300)),
        *[("fig1_ple", ("emitters", i, key, 1e300))
          for i in range(3) for key in ("linewidth_mhz", "rabi_mhz")],
        *[("fig2_pump_probe", ("emitter", "model", manifold, "g_spin", 1e300))
          for manifold in ("ground", "excited")],
        *[("fig2_pump_probe", ("emitter", "model", "b_field_t", i, 1e300))
          for i in range(3)],
        ("fig2_pump_probe", ("t1_ns", 1e-300)),
        ("fig4_cpt", ("cpt", "t2_star_ns", 1e-300)),
        ("fig4_spin_pumping", ("spin_pump", "t1_ns", 1e-300)),
        ("fig4_t1", ("spin_pump", "t1_ns", 1e-300)),
        # kappa overflows to inf Hz, and gamma_on / gamma0 makes g overflow
        ("cooperativity_report", ("cooperativity", "kappa_ghz", 1e300)),
        ("cooperativity_report", ("cooperativity", "gamma_on_mhz", 1e300)),
        # these leaked numpy RuntimeWarnings before their error line: magnet
        # distances whose squares overflow (reported as log(0) on an edge
        # line), scan ends and widths beyond float64 in Hz, and noise that
        # scales the data beyond it
        *[("fig2_magnet_map", ("magnets", i, "center_mm", j, v))
          for i in range(2) for j in range(3) for v in (1e300, -1e300)],
        *[("fig2_magnet_map", ("magnets", i, "dimensions_mm", j, 1e300))
          for i in range(2) for j in range(3)],
        *[("fig2_magnet_map", ("grid", axis, end, v))
          for axis in ("x_mm", "z_mm") for end, v in (("start", -1e300),
                                                      ("stop", 1e300))],
        *[("fig2_magnet_map", ("pcc_mm", j, v))
          for j in range(3) for v in (1e300, -1e300)],
        *[("fig1_cavity_fit", ("synthetic", key, v))
          for key, v in (("resonance_thz", 1e300), ("span_ghz", 1e300),
                         ("kappa_ghz", 1e300), ("kappa_ghz", 1e-300))],
        ("fig1_ple", ("scan", "start_thz", -1e300)),
        ("fig1_ple", ("scan", "stop_thz", 1e300)),
        ("fig2_pump_probe", ("scan", "start_offset_ghz", -1e300)),
        ("fig2_pump_probe", ("scan", "stop_offset_ghz", 1e300)),
        ("fig3_saturation", ("synthetic", "noise_rel", 1e300)),
    ])
    def test_huge_leaf_is_a_one_line_runtime_error(self, tmp_path, capsys, name, leaf):
        rc = cli_main(["run", write_cfg(tmp_path, edited(name, leaf)),
                       "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    # leaves that a model does not describe or float64 does not carry, each
    # named by its one `error:` line, with exit 2: the cavity outside the
    # bad-cavity regime (kappa below gamma0 itself), ground flip rates near
    # 1e191 and 1e281 Hz over microsecond delays, manifold energies beyond
    # the optical frequency (fields of 1e100-1e290 T, g-factors of 1e100),
    # a pcc field whose magnitude overflows, drives of 1e306 Hz against rates
    # near 1e6 Hz, a zero-field pump-probe scan without spin relaxation
    # (these three reported a null space of dimension 6, 3 and 2), a pump
    # that drives no line of ground states 0 and 1 (these ran with exit 0),
    # magnet distances whose squares overflow, scans beyond float64 in Hz,
    # and noise that scales the data beyond it
    @pytest.mark.parametrize("name, leaves, message", [
        ("cooperativity_report", [("cooperativity", "kappa_ghz", 0.1)],
         "protocol 'cooperativity_report': outside the bad-cavity regime: "
         "at C = 0.295 the closed-form linewidth 203 MHz misses the exact "
         "130.4 MHz by more than 0.01 relative\n"),
        ("fig4_t1", [("spin_pump", "t1_ns", 1e-200)],
         "protocol 't1_recovery': ||L||_1 * t = 1e+203 exceeds 9.01e+07, "
         "beyond which float64 roundoff breaks the 1e-8 trace tolerance\n"),
        ("fig4_t1", [("spin_pump", "t1_ns", 1e-290)],
         "protocol 't1_recovery': ||L||_1 * t = 1e+293 exceeds 9.01e+07, "
         "beyond which float64 roundoff breaks the 1e-8 trace tolerance\n"),
        *[("fig2_pump_probe", [("emitter", "model", "b_field_t", 2, b)],
           f"protocol 'pump_probe_scan': manifold energies reach {reach} Hz "
           "(largest |ground| plus largest |excited| eigenvalue), not below "
           "the 4.07e+14 Hz zero-phonon line center: an optical line could "
           "have no positive frequency\n")
          for b, reach in ((1e100, "2.8e+110"), (1e200, "2.8e+210"),
                           (1e290, "2.8e+300"))],
        ("fig2_pump_probe", [("emitter", "model", manifold, "g_spin", 1e100)
                             for manifold in ("ground", "excited")],
         "protocol 'pump_probe_scan': manifold energies reach 3.56e+109 Hz "
         "(largest |ground| plus largest |excited| eigenvalue), not below "
         "the 4.07e+14 Hz zero-phonon line center: an optical line could "
         "have no positive frequency\n"),
        ("fig2_magnet_map", [("magnets", i, "remanence_t", [1e300, 0.0, 0.0])
                             for i in (0, 1)],
         "protocol 'magnet_map': field magnitude at the pcc point overflows "
         "float64: its largest component is 1.86e+299\n"),
        ("fig2_pump_probe", [("pump", "rabi_mhz", 1e300)],
         "protocol 'pump_probe_scan': rates span 5.47e+300, from the decay "
         "rate g0->g1 at 1.26e+05 Hz to the Rabi frequency g1-e1 at 6.91e+305 "
         "Hz: beyond 1e+10, float64 cannot resolve the steady state\n"),
        ("fig4_cpt", [("cpt", "rabi_pump_mhz", 1e300)],
         "protocol 'cpt_scan': rates span 6.09e+299, from the dephasing rate "
         "g1-g2 at 1.64e+06 Hz to the Rabi frequency g1-e at 1e+306 Hz: beyond "
         "1e+10, float64 cannot resolve the steady state\n"),
        ("fig2_pump_probe", [("emitter", "model", "b_field_t", [0.0, 0.0, 0.0]),
                             ("t1_ns", None)],
         "protocol 'pump_probe_scan': at zero field no optical decay flips the "
         "ground spin, so without t1_ns the pumped steady state is not unique\n"),
        *[("fig2_pump_probe", [("pump", key, v)],
           f"protocol 'pump_probe_scan': the pump at {at} Hz drives no line: it "
           f"lies {gap} linewidths from the nearest line of ground states 0 and "
           "1, beyond the 50-linewidth cutoff\n")
          for key, v, at, gap in (("parent", "B", "4.0707e+14", "319"),
                                  ("parent", "D", "4.06474e+14", "316"),
                                  ("detuning_mhz", 1e300, "1e+306", "6.37e+297"),
                                  ("detuning_mhz", -1e300, "-1e+306", "6.37e+297"))],
        ("fig2_magnet_map", [("magnets", 0, "center_mm", 0, -1e300)],
         "protocol 'magnet_map': a magnet reaches 1e+297 m, beyond the 1e+150 m "
         "within which the closed form's squared distances stay finite in "
         "float64\n"),
        ("fig2_magnet_map", [("grid", "x_mm", "stop", 1e300)],
         "protocol 'magnet_map': the grid reaches 1e+297 m, beyond the 1e+150 m "
         "within which the closed form's squared distances stay finite in "
         "float64\n"),
        ("fig2_magnet_map", [("pcc_mm", 2, 1e300)],
         "protocol 'magnet_map': an evaluation point reaches 1e+297 m, beyond the "
         "1e+150 m within which the closed form's squared distances stay finite "
         "in float64\n"),
        ("fig1_ple", [("scan", "stop_thz", 1e300)],
         "protocol 'ple_scan': the scan (scan.start_thz to scan.stop_thz) runs "
         "from 4.066e+14 to inf Hz: its ends or span overflow float64\n"),
        # scans whose points collapse below the ulp of their ends, and spans
        # whose squares fit in float64 but the Lorentzian Jacobian's products
        # do not (these said "x must be strictly monotone" or "Jacobian is not
        # finite at p0", naming no leaf)
        *[("fig1_cavity_fit", [("synthetic", "resonance_thz", v)],
           "protocol 'cavity_fit': the synthetic scan (synthetic.span_ghz about "
           "synthetic.resonance_thz) steps 0 Hz between its 401 points, below "
           f"what float64 resolves at {at} Hz\n")
          for v, at in ((1e140, "1e+152"), (1e20, "1e+32"))],
        ("fig2_pump_probe", [("scan", "start_offset_ghz", 0.0),
                             ("scan", "stop_offset_ghz", 1e-12)],
         "protocol 'pump_probe_scan': the scan (scan.start_offset_ghz to "
         "scan.stop_offset_ghz) steps 0 Hz between its 481 points, below what "
         "float64 resolves at 4.06531e+14 Hz\n"),
        ("fig1_ple", [("scan", "stop_thz", 406.600000000001)],
         "protocol 'ple_scan': the scan (scan.start_thz to scan.stop_thz) steps "
         "0.002 Hz between its 501 points, below what float64 resolves at "
         "4.066e+14 Hz\n"),
        *[("fig1_cavity_fit", [("synthetic", "span_ghz", v)],
           f"protocol 'cavity_fit': synthetic.span_ghz is {hz} Hz, too wide for "
           "float64 to carry the Lorentzian fit's Jacobian\n")
          for v, hz in ((1e95, "1e+104"), (1e120, "1e+129"), (1e145, "1e+154"))],
        ("fig1_cavity_fit", [("synthetic", "kappa_ghz", 1e-300)],
         "protocol 'cavity_fit': half of synthetic.kappa_ghz is 5e-292 Hz, whose "
         "square float64 cannot carry\n"),
        ("fig1_cavity_fit", [("synthetic", "span_ghz", 1e300)],
         "protocol 'cavity_fit': half of synthetic.span_ghz is inf Hz, whose "
         "square overflows float64\n"),
        ("fig3_saturation", [("synthetic", "noise_rel", 1e300)],
         "protocol 'saturation_study': synthetic.noise_rel 1e+300 scales the "
         "noisy data beyond float64\n"),
        # noise beyond float64 wrote inf to data.csv with exit 0, and a CPT
        # span beyond it said "laser_detuning must be finite" after a numpy
        # RuntimeWarning
        ("fig1_ple", [("noise", {"sigma_rel": 1e308})],
         "protocol 'ple_scan': noise.sigma_rel 1e+308 scales the noisy data "
         "beyond float64\n"),
        ("fig4_cpt", [("scan", "span_mhz", 1e303)],
         "protocol 'cpt_scan': the scan (scan.span_mhz) runs from -inf to inf "
         "Hz: its ends or span overflow float64\n"),
        # delays that float64 cannot tell apart (these said "taus must be
        # non-negative and increasing", naming no leaf)
        *[("fig4_t1", [("taus", "start_ns", start), ("taus", "stop_ns", stop)],
           "protocol 't1_recovery': the delays (taus.start_ns to taus.stop_ns) "
           f"steps {step} s between its 25 points, below what float64 "
           f"resolves at {at} s\n")
          for start, stop, step, at in (
              (1e10, 1.0000000000000011e10, "5.18e-16", "10"),
              (1e250, 1.0000000000000011e250, "4.32e+224", "1e+241"))],
    ])
    def test_unmodelled_physics_is_a_named_runtime_error(self, tmp_path, capsys,
                                                         name, leaves, message):
        rc = cli_main(["run", write_cfg(tmp_path, edited(name, *leaves)),
                       "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == f"error: {message}"

    @pytest.mark.parametrize("span_ghz", [1e80, 1e93])
    def test_wide_span_within_the_jacobian_guard_runs(self, tmp_path, capsys,
                                                      span_ghz):
        # the Jacobian's squared denominators overflow to inf here, which
        # leaves its products finite: the fit runs and writes its result
        tree = edited("fig1_cavity_fit", ("synthetic", "span_ghz", span_ghz))
        rc = cli_main(["run", write_cfg(tmp_path, tree), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        assert Path(out.strip(), "fits.json").exists()

    # fits that overflowed inside `lm_fit` leaked RuntimeWarnings (12 and 2
    # stderr lines) before exit 0; the unconverged fit with its null sigma
    # is now written in silence
    @pytest.mark.parametrize("name, leaf, fit, sigma", [
        ("fig3_saturation", ("synthetic", "gamma0_mhz", 1e300),
         "saturation", "gamma0_sigma_mhz"),
        ("fig4_cpt", ("cpt", "optical_rate_mhz", 1e-300),
         "cpt_dip", "dip_fwhm_sigma_mhz"),
    ])
    def test_overflowing_fit_is_silent(self, tmp_path, name, leaf, fit, sigma):
        proc = run_cli("run", write_cfg(tmp_path, edited(name, leaf)),
                       "--out", str(tmp_path / "o"))
        assert (proc.returncode, proc.stderr) == (0, "")
        fits = json.loads(Path(proc.stdout.strip(), "fits.json").read_text())
        assert fits[fit]["converged"] is False
        assert fits[fit][sigma] is None

    def test_noise_below_zero_at_the_lowest_power_still_fits(self, tmp_path):
        # at noise_rel 3 and seed 4 the lowest-power linewidth draws negative:
        # the saturation guess started below its own bound, and the run
        # exited 2 with "initial parameters violate the bounds"
        tree = edited("fig3_saturation", ("synthetic", "noise_rel", 3.0))
        proc = run_cli("run", write_cfg(tmp_path, tree), "--seed", "4",
                       "--out", str(tmp_path / "o"))
        assert (proc.returncode, proc.stderr) == (0, "")
        fits = json.loads(Path(proc.stdout.strip(), "fits.json").read_text())
        assert fits["saturation"]["gamma0_mhz"] > 0.0

    # counts so large that the run would die allocating its arrays, with a
    # traceback, or run out of memory: each fails validation, with one
    # `error:` line and exit 1, before `run` allocates anything
    @pytest.mark.parametrize("name, leaf", [
        ("fig1_ple", ("scan", "points", 1e300)),
        ("fig2_pump_probe", ("scan", "points", 1e300)),
        ("fig4_cpt", ("scan", "points", 1e300)),
        ("fig4_t1", ("taus", "points", 1e300)),
        ("fig4_t1", ("spin_pump", "samples_per_pulse", 1e300)),
        ("fig4_spin_pumping", ("spin_pump", "n_pulses", 1e300)),
        ("fig4_spin_pumping", ("spin_pump", "n_pulses", 2 ** 20)),
        ("fig1_cavity_fit", ("synthetic", "points", 1e300)),
        ("fig3_saturation", ("synthetic", "points", 1e300)),
        *[("fig2_magnet_map", ("grid", axis, "points", 1e300))
          for axis in ("x_mm", "z_mm")],
        ("fig2_magnet_map", ("grid", "x_mm", "points", 10 ** 7)),
    ])
    def test_huge_count_is_a_one_line_config_error(self, tmp_path, capsys, name,
                                                   leaf):
        cfg = write_cfg(tmp_path, edited(name, leaf))
        for argv in (["validate", cfg], ["run", cfg, "--out", str(tmp_path)]):
            rc = cli_main(argv)
            out, err = capsys.readouterr()
            assert (rc, out) == (1, "")
            assert err.startswith("error: ")
            assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "test.cfg"]

    # files that the loader or the validator turned into a traceback, or
    # into several lines: each is one `error:` line and exit 1
    @pytest.mark.parametrize("text, message", [
        pytest.param(b"protocol: cpt_scan\nseed: " + b"9" * 400,
                     "expected a finite number, got 999", id="beyond-float64"),
        pytest.param(b"protocol: cpt_scan\nseed: " + b"9" * 5000,
                     "Exceeds the limit", id="beyond-int-digits"),
        pytest.param(b"protocol: cpt_scan\nseed: 2020-13-45",
                     "month must be in 1..12", id="bad-date"),
        pytest.param(b"protocol: cpt_scan\n# caf\xe9",
                     "can't decode byte 0xe9", id="not-utf8"),
        pytest.param(b"protocol: cpt_scan\ncpt:\n  t2_star_ns: 97.0\n  t2_star_ns: 50.0",
                     "at line 4: duplicate key 't2_star_ns'", id="repeated-key"),
        pytest.param(b"- protocol: cpt_scan\n",
                     "must contain a mapping at the top level", id="top-level-list"),
        pytest.param(b"protocol: cpt_scan\ncpt: [1, 2\n",
                     "at line 3: did not find expected ',' or ']'", id="yaml-syntax"),
        pytest.param(b"protocol: cooperativity_report\ncooperativity: "
                     b"{gamma_on_mhz: 203.0, gamma0_mhz: 157.0, kappa_ghz: 273.0}\n"
                     b"1: a\nfoo: b", "unknown key(s) [1, 'foo']", id="mixed-key-types"),
    ])
    def test_bad_file_is_a_one_line_config_error(self, tmp_path, capsys,
                                                          text, message):
        path = tmp_path / "bad.cfg"
        path.write_bytes(text)
        rc = cli_main(["validate", str(path)])
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1

    def test_run_writes_outputs(self, tmp_path, capsys):
        rc = cli_main(["run", str(CONFIGS / "cooperativity_report.cfg"),
                       "--out", str(tmp_path)])
        assert rc == 0
        out_dir = capsys.readouterr().out.strip()
        assert Path(out_dir, "data.csv").exists()
        assert Path(out_dir, "manifest.json").exists()

    def test_verbose_run_reports_its_files_on_stderr(self, tmp_path, capsys):
        rc = cli_main(["run", str(CONFIGS / "cooperativity_report.cfg"),
                       "--out", str(tmp_path), "--verbose"])
        out, err = capsys.readouterr()
        assert rc == 0
        assert err == f"wrote {out.strip()}/{{data.csv,fits.json,manifest.json}}\n"

    def test_fit_subcommand_outputs_json(self, tmp_path, capsys):
        from sivcav.fitting import LORENTZIAN

        x = np.linspace(-5, 5, 101)
        y = LORENTZIAN.func(x, [0.4, 1.8, 2.0, 0.3])
        csv_path = tmp_path / "spec.csv"
        csv_path.write_text("x,value\n" + "\n".join(
            f"{a},{b}" for a, b in zip(x, y)) + "\n")
        rc = cli_main(["fit", "lorentzian", str(csv_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["fwhm"]["value"] == pytest.approx(1.8, rel=1e-6)
        assert payload["converged"]

    def test_fit_prints_strict_json_for_a_collapsed_fit(self, tmp_path, capsys):
        # the timescale collapses to its bound and the sigmas are NaN
        csv_path = tmp_path / "recovery.csv"
        csv_path.write_text("t,y\n0,-14.07\n2.285,-3.88\n4.57,5.05\n"
                            "6.855,-6.08\n9.14,0.076\n")
        assert cli_main(["fit", "exponential_recovery", str(csv_path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""

        def reject(constant):
            raise AssertionError(f"non-JSON constant {constant}")

        payload = json.loads(out, parse_constant=reject)
        assert payload["flags"] == ["jacobian_overflow", "singular_covariance",
                                    "timescale_unidentifiable"]
        assert {v["sigma"] for v in payload["params"].values()} == {None}

    @pytest.mark.parametrize("model, flag", [
        ("lorentzian", "width_unidentifiable"),
        ("cpt_dip", "width_unidentifiable"),
        ("exponential_decay", "timescale_unidentifiable"),
        ("exponential_recovery", "timescale_unidentifiable"),
    ])
    def test_fit_flags_a_flat_csv_as_lm_fit_does(self, tmp_path, capsys, model,
                                                 flag):
        # a flat trace constrains no width or timescale, whoever fits it
        from sivcav.fitting import MODELS, Spectrum, lm_fit

        x = np.linspace(0.0, 5.0, 40)
        csv_path = tmp_path / "flat.csv"
        csv_path.write_text("".join(f"{a},3.0\n" for a in x))
        assert cli_main(["fit", model, str(csv_path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        flags = json.loads(out)["flags"]
        assert flag in flags
        direct = lm_fit(MODELS[model], Spectrum(x, np.full(40, 3.0)))
        assert tuple(flags) == direct.flags

    def test_fit_header_is_the_first_non_empty_row(self, tmp_path, capsys):
        from sivcav.fitting import LINEAR

        x = np.linspace(0.0, 4.0, 9)
        rows = "\n".join(f"{a},{b}" for a, b in zip(x, LINEAR.func(x, [2.0, 1.0])))
        csv_path = tmp_path / "line.csv"
        csv_path.write_text("\n  \nx,value\n" + rows + "\n")
        assert cli_main(["fit", "linear", str(csv_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["slope"]["value"] == pytest.approx(2.0, rel=1e-9)

        # a later non-numeric row is still an error, with its line number
        csv_path.write_text("\nx,value\n" + rows + "\nx,value\n")
        assert cli_main(["fit", "linear", str(csv_path)]) == 2
        assert capsys.readouterr().err == \
            f"error: {csv_path}:12: non-numeric data\n"

    # a CSV that is not UTF-8 printed a UnicodeDecodeError traceback with
    # exit 1, and a non-finite cell was named by neither file nor line:
    # each bad CSV is one `error:` line and exit 2
    @pytest.mark.parametrize("text, message", [
        pytest.param(b"x,y\n0,1\n1,caf\xe9\n", "cannot read {}: not UTF-8 "
                     "(invalid continuation byte)", id="not-utf8"),
        pytest.param(b"x,y\n0,1\n1,nan\n2,3\n", "{}:3: non-finite value",
                     id="nan"),
        pytest.param(b"0,1\n-inf,2\n3,4\n", "{}:2: non-finite value", id="inf"),
        pytest.param(b"0\n1\n2\n", "{}:1: need at least two columns",
                     id="one-column"),
        pytest.param(b"x,y\n", "{}: no data rows found", id="header-only"),
        # a repeated x said "x must be strictly monotone", naming no line
        pytest.param(b"x,y\n0,1\n1,2\n1,3\n2,4\n",
                     "{0}:3 and {0}:4: x value 1.0 repeats", id="repeated-x"),
        pytest.param(b"5,1\n2,2\n\n7,3\n2.0,4\n-1,5\n",
                     "{0}:2 and {0}:5: x value 2.0 repeats", id="repeat-unsorted"),
    ])
    def test_bad_csv_is_a_one_line_runtime_error(self, tmp_path, capsys, text,
                                                 message):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_bytes(text)
        rc = cli_main(["fit", "linear", str(csv_path)])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == f"error: {message.format(csv_path)}\n"

    def test_fit_missing_csv_exit_two(self, capsys):
        rc = cli_main(["fit", "lorentzian", "/no/such/file.csv"])
        assert rc == 2

    def test_fit_unknown_model_exit_two(self, tmp_path, capsys):
        csv_path = tmp_path / "spec.csv"
        csv_path.write_text("x,value\n0,1\n1,2\n2,3\n")
        rc = cli_main(["fit", "no_such_model", str(csv_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown model 'no_such_model'")
        assert "lorentzian" in err
        assert len(err.strip().splitlines()) == 1

    def test_module_entrypoint(self):
        proc = run_cli("validate", str(CONFIGS / "fig1_cavity_fit.cfg"))
        assert proc.returncode == 0
        assert proc.stdout == ""  # diagnostics on stderr only
        assert "valid" in proc.stderr

    def test_import_loads_no_physics_stack(self):
        # `validate` must stay cheap: importing the CLI may not pull in
        # scipy or the protocol runners, and validating a config only parses
        # YAML, so it may not load numpy, nor `dataclasses` (and through it
        # `inspect`)
        import sivcav

        src = str(Path(sivcav.__file__).resolve().parents[1])
        cfg = str(CONFIGS / "fig4_cpt.cfg")
        code = ("import sys, sivcav.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy' or m.startswith('sivcav.protocols'))); "
                f"rc = sivcav.cli.main(['validate', {cfg!r}]); "
                "print(rc, 'numpy' in sys.modules, 'dataclasses' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["[]", "0 False False"]

    @pytest.mark.parametrize("name", SHIPPED)
    def test_run_loads_only_its_protocols_modules(self, tmp_path, name):
        # a fresh `sivcav run` imports the physics of its own protocol only,
        # and `numpy.random` only when the run draws noise
        import sivcav

        src = str(Path(sivcav.__file__).resolve().parents[1])
        cfg = str(CONFIGS / name)
        code = ("import json, sys, sivcav.cli\n"
                f"rc = sivcav.cli.main(['run', {cfg!r}, '--out', {str(tmp_path)!r}])\n"
                "print(json.dumps([rc, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'sivcav'), 'numpy.random' in sys.modules]))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        rc, loaded, random_loaded = json.loads(proc.stdout.splitlines()[-1])
        assert rc == 0
        protocol = load_config(cfg).protocol
        assert set(loaded) - RUN_MODULES - PROTOCOL_MODULES[protocol] == set()
        if protocol in ("magnet_map", "cooperativity_report"):
            assert not {m for m in loaded
                        if m.startswith(("sivcav.dynamics", "sivcav.fitting",
                                         "sivcav.siv_levels"))}
        assert random_loaded == (name in DRAWS_NOISE)

    def test_steady_state_and_propagation_runs_load_no_scipy(self, tmp_path):
        # the stacked steady-state kernel and the eigenbasis propagator use
        # numpy only; scipy is imported solely by the expm fallback
        import sivcav

        src = str(Path(sivcav.__file__).resolve().parents[1])
        cfgs = [str(CONFIGS / f"{name}.cfg")
                for name in ("fig4_cpt", "fig2_pump_probe", "fig4_t1")]
        code = ("import sys, sivcav.cli\n"
                f"for cfg in {cfgs!r}:\n"
                f"    assert sivcav.cli.main(['run', cfg, '--out', {str(tmp_path)!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestEntry:
    """`python -m sivcav.cli` (and the installed `sivcav`) run `cli.entry`:
    `main`, a flush of stdout and stderr, then `os._exit`."""

    def test_run_prints_its_directory_and_writes_the_golden(self, tmp_path):
        proc = run_cli("run", str(CONFIGS / "cooperativity_report.cfg"),
                       "--out", str(tmp_path))
        assert (proc.returncode, proc.stderr) == (0, "")
        (out_dir,) = tmp_path.iterdir()
        assert proc.stdout == f"{out_dir}\n"
        for name in ("data.csv", "fits.json"):
            golden = REPO / "tests" / "golden" / f"cooperativity_report_{name}"
            assert (out_dir / name).read_bytes() == golden.read_bytes()

    def test_fit_prints_what_main_prints(self, tmp_path, capsys):
        from sivcav.fitting import LORENTZIAN

        x = np.linspace(-5, 5, 101)
        csv_path = tmp_path / "spec.csv"
        csv_path.write_text("x,value\n" + "\n".join(
            f"{a},{b}" for a, b in zip(x, LORENTZIAN.func(x, [0.4, 1.8, 2.0, 0.3]))))
        assert cli_main(["fit", "lorentzian", str(csv_path)]) == 0
        proc = run_cli("fit", "lorentzian", str(csv_path))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == capsys.readouterr().out

    @pytest.mark.parametrize("path, code", [
        (str(CONFIGS / "malformed" / "03_negative_rate.cfg"), 1),
        ("/nonexistent/path.cfg", 2),
    ])
    def test_errors_are_one_line_with_their_exit_code(self, path, code):
        proc = run_cli("run", path)
        assert (proc.returncode, proc.stdout) == (code, "")
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1

    def test_non_finite_cooperativity_is_one_error_line(self, tmp_path):
        # kappa of 1e300 GHz is inf Hz; the run wrote "cooperativity": null
        # and "g_ghz": null after four lines of RuntimeWarning, with exit 0
        tree = yaml.safe_load((CONFIGS / "cooperativity_report.cfg").read_text())
        tree["cooperativity"]["kappa_ghz"] = 1e300
        proc = run_cli("run", write_cfg(tmp_path, tree), "--out", str(tmp_path / "o"))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: protocol 'cooperativity_report': "
                                      "cooperativity is nan in float64")
        assert len(proc.stderr.splitlines()) == 1
        assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())

    def test_usage_errors_and_help_exit_through_argparse(self):
        proc = run_cli("run", "--no-such-option")
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: sivcav")
        proc = run_cli("--help")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: sivcav")

    @pytest.mark.parametrize("call, handler_runs", [
        ("sivcav.cli.entry()", False),
        ("sys.exit(sivcav.cli.main())", True),
    ])
    def test_entry_skips_interpreter_teardown(self, call, handler_runs):
        cfg = str(CONFIGS / "fig4_cpt.cfg")
        code = ("import atexit, sys, sivcav.cli\n"
                "atexit.register(print, 'atexit handler ran')\n"
                f"sys.argv = ['sivcav', 'validate', {cfg!r}]\n"
                f"{call}\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert "valid" in proc.stderr
        assert (proc.stdout == "atexit handler ran\n") == handler_runs
        assert proc.stdout in ("", "atexit handler ran\n")

    def test_closed_stdout_is_a_runtime_error(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sivcav.cli", "run",
                 str(CONFIGS / "cooperativity_report.cfg"), "--out", str(tmp_path)],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=child_env(), cwd=str(REPO))
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1

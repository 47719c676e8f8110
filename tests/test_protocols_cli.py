import copy
import functools
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from sivcav.cli import main as cli_main
from sivcav.config import ProtocolConfig, load_config, validate_tree
from sivcav.errors import ConfigError
from sivcav.protocols import run_protocol

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


def write_cfg(tmp_path, tree, name="test.cfg"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree))
    return str(path)


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
    def test_minimal_cpt_parses_with_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL_CPT))
        assert cfg.protocol == "cpt_scan"
        assert cfg.seed == 0
        assert cfg.blocks["cpt"]["f_s_ghz"] == 6.8
        assert cfg.blocks["cpt"]["detuning_split"] == "symmetric"

    def test_echo_round_trip_lossless(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL_CPT))
        echoed = validate_tree(cfg.to_dict())
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

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(p.name for p in CONFIGS.glob("*.cfg"))),
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

    def test_magnet_map_pcc_field(self, tmp_path):
        cfg = load_config(str(CONFIGS / "fig2_magnet_map.cfg"))
        manifest = run_protocol(cfg, out_dir=str(tmp_path / "o"))
        fits = json.loads((Path(manifest.out_dir) / "fits.json").read_text())
        assert fits["pcc"]["magnitude_t"] > 0.25
        data = (Path(manifest.out_dir) / "data.csv").read_text().splitlines()
        assert data[0] == "x_m,y_m,z_m,bx_t,by_t,bz_t,masked"
        masked = [row for row in data[1:] if row.endswith(",1")]
        assert masked  # grid crosses the magnet volumes

    def test_failed_run_leaves_no_partial_dir(self, tmp_path, monkeypatch):
        import sivcav.protocols as protocols_mod

        def boom(cfg, rng):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(protocols_mod._RUNNERS, "cpt_scan", boom)
        cfg = load_config(write_cfg(tmp_path, MINIMAL_CPT))
        out = tmp_path / "out"
        with pytest.raises(RuntimeError):
            run_protocol(cfg, out_dir=str(out))
        assert not any(out.glob("cpt_scan-*"))

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

    def test_run_writes_outputs(self, tmp_path, capsys):
        rc = cli_main(["run", str(CONFIGS / "cooperativity_report.cfg"),
                       "--out", str(tmp_path)])
        assert rc == 0
        out_dir = capsys.readouterr().out.strip()
        assert Path(out_dir, "data.csv").exists()
        assert Path(out_dir, "manifest.json").exists()

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
        proc = subprocess.run(
            [sys.executable, "-m", "sivcav.cli", "validate",
             str(CONFIGS / "fig1_cavity_fit.cfg")],
            capture_output=True, text=True, cwd=str(REPO))
        assert proc.returncode == 0
        assert proc.stdout == ""  # diagnostics on stderr only
        assert "valid" in proc.stderr

    def test_import_loads_no_physics_stack(self):
        # `validate` must stay cheap: importing the CLI may not pull in
        # scipy or the protocol runners, and validating a config only parses
        # YAML, so it may not load numpy either
        import sivcav

        src = str(Path(sivcav.__file__).resolve().parents[1])
        cfg = str(CONFIGS / "fig4_cpt.cfg")
        code = ("import sys, sivcav.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy' or m.startswith('sivcav.protocols'))); "
                f"rc = sivcav.cli.main(['validate', {cfg!r}]); "
                "print(rc, 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["[]", "0 False"]

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

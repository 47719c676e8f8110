"""Protocol configuration: YAML loading, schema validation, canonical hashing.

One protocol per file. Validation is strict: unknown keys are rejected with
the list of valid keys, missing blocks name the protocol's requirements, and
numeric checks name the offending field by dotted path.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import namedtuple

import yaml

from .errors import ConfigError

__all__ = ["ProtocolConfig", "load_config", "validate_tree", "PROTOCOLS"]

PROTOCOLS = (
    "ple_scan",
    "pump_probe_scan",
    "spin_pumping",
    "t1_recovery",
    "cpt_scan",
    "cavity_fit",
    "saturation_study",
    "magnet_map",
    "cooperativity_report",
)


class ProtocolConfig(namedtuple(
        "ProtocolConfig", "protocol seed blocks output_dir source_path",
        defaults=("runs", ""))):
    """Validated configuration with defaults filled in.

    `blocks` is the normalized tree with defaults applied. A named tuple, not
    a dataclass, so that loading a config does not import `dataclasses`.
    """

    __slots__ = ()

    def config_hash(self) -> str:
        """SHA-256 of the canonical JSON form; stable under key reordering."""
        payload = {"protocol": self.protocol, "seed": self.seed,
                   "blocks": self.blocks}
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def to_dict(self) -> dict:
        return {"protocol": self.protocol, "seed": self.seed,
                "output_dir": self.output_dir, **self.blocks}


# ---------------------------------------------------------------------------
# field-level checker helpers
# ---------------------------------------------------------------------------

def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(float(v))


class _Block:
    """Tracks consumed keys so leftovers can be reported precisely."""

    def __init__(self, data, path):
        if not isinstance(data, dict):
            raise ConfigError(f"expected a mapping, got {type(data).__name__}",
                              field=path)
        self.data = dict(data)
        self.path = path
        self.valid = []

    def _field(self, key):
        return f"{self.path}.{key}" if self.path else key

    def number(self, key, default=None, minimum=None, maximum=None,
               positive=False, required=False):
        self.valid.append(key)
        if self.data.get(key, None) is None:
            self.data.pop(key, None)  # explicit null means unset
            if required:
                raise ConfigError("missing required field", field=self._field(key))
            return default
        v = self.data.pop(key)
        if not _is_number(v):
            raise ConfigError(f"expected a finite number, got {v!r}",
                              field=self._field(key))
        v = float(v)
        if positive and v <= 0:
            raise ConfigError(f"must be positive, got {v}", field=self._field(key))
        if minimum is not None and v < minimum:
            raise ConfigError(f"must be >= {minimum}, got {v}", field=self._field(key))
        if maximum is not None and v > maximum:
            raise ConfigError(f"must be <= {maximum}, got {v}", field=self._field(key))
        return v

    def integer(self, key, default=None, minimum=None, required=False):
        v = self.number(key, default=default, minimum=minimum, required=required)
        if v is None:
            return None
        if v != int(v):
            raise ConfigError(f"expected an integer, got {v}", field=self._field(key))
        return int(v)

    def string(self, key, default=None, choices=None, required=False):
        self.valid.append(key)
        if key not in self.data:
            if required:
                raise ConfigError("missing required field", field=self._field(key))
            return default
        v = self.data.pop(key)
        if not isinstance(v, str):
            raise ConfigError(f"expected a string, got {v!r}", field=self._field(key))
        if choices is not None and v not in choices:
            raise ConfigError(f"must be one of {sorted(choices)}, got {v!r}",
                              field=self._field(key))
        return v

    def vector3(self, key, default=None, required=False):
        self.valid.append(key)
        if key not in self.data:
            if required:
                raise ConfigError("missing required field", field=self._field(key))
            return default
        v = self.data.pop(key)
        if not isinstance(v, (list, tuple)) or len(v) != 3 \
                or not all(_is_number(c) for c in v):
            raise ConfigError(f"expected a 3-vector of numbers, got {v!r}",
                              field=self._field(key))
        return [float(c) for c in v]

    def sub(self, key, required=False):
        self.valid.append(key)
        if key not in self.data:
            if required:
                raise ConfigError("missing required block", field=self._field(key))
            return None
        return _Block(self.data.pop(key), self._field(key))

    def sublist(self, key, required=False):
        self.valid.append(key)
        if key not in self.data:
            if required:
                raise ConfigError("missing required block", field=self._field(key))
            return []
        v = self.data.pop(key)
        if not isinstance(v, list) or not v:
            raise ConfigError("expected a non-empty list of mappings",
                              field=self._field(key))
        return [_Block(item, f"{self._field(key)}[{i}]") for i, item in enumerate(v)]

    def finish(self):
        if self.data:
            unknown = sorted(self.data)
            raise ConfigError(
                f"unknown key(s) {unknown}; valid keys here: {sorted(set(self.valid))}",
                field=self.path or "<root>")


# ---------------------------------------------------------------------------
# shared block parsers (return plain normalized dicts)
# ---------------------------------------------------------------------------

def _parse_manifold(b: _Block) -> dict:
    out = {
        "lambda_so_ghz": b.number("lambda_so_ghz", required=True, positive=True),
        "strain_alpha_ghz": b.number("strain_alpha_ghz", default=0.0),
        "strain_beta_ghz": b.number("strain_beta_ghz", default=0.0),
        "quench_f": b.number("quench_f", default=0.1, minimum=0.0, maximum=1.0),
        "g_spin": b.number("g_spin", default=2.0, positive=True),
    }
    b.finish()
    return out


def _parse_emitter_model(b: _Block) -> dict:
    ground = b.sub("ground", required=True)
    excited = b.sub("excited", required=True)
    out = {
        "ground": _parse_manifold(ground),
        "excited": _parse_manifold(excited),
        "zpl_center_thz": b.number("zpl_center_thz", required=True, positive=True),
        "b_field_t": b.vector3("b_field_t", default=[0.0, 0.0, 0.0]),
        "axis": b.vector3("axis", default=[0.0, 0.0, 1.0]),
    }
    b.finish()
    return out


def _parse_ple_emitter(b: _Block) -> dict:
    model = b.sub("model", required=True)
    out = {
        "model": _parse_emitter_model(model),
        "linewidth_mhz": b.number("linewidth_mhz", required=True, positive=True),
        "rabi_mhz": b.number("rabi_mhz", required=True, minimum=0.0),
        "temperature_k": b.number("temperature_k", default=4.0, positive=True),
    }
    b.finish()
    return out


def _parse_scan(b: _Block, start_key, stop_key) -> dict:
    out = {
        start_key: b.number(start_key, required=True),
        stop_key: b.number(stop_key, required=True),
        "points": b.integer("points", required=True, minimum=2),
    }
    if out[stop_key] <= out[start_key]:
        raise ConfigError(f"{stop_key} must exceed {start_key}", field=b.path)
    b.finish()
    return out


def _parse_spin_pump(b: _Block) -> dict:
    out = {
        "rabi_mhz": b.number("rabi_mhz", required=True, minimum=0.0),
        "optical_rate_mhz": b.number("optical_rate_mhz", required=True, positive=True),
        "eta": b.number("eta", required=True, minimum=0.0, maximum=1.0),
        "t1_ns": b.number("t1_ns", required=True, positive=True),
        "f_s_ground_ghz": b.number("f_s_ground_ghz", default=6.8),
        "f_s_excited_ghz": b.number("f_s_excited_ghz", default=7.0),
        "background": b.number("background", default=0.0, minimum=0.0),
        "pulse_length_ns": b.number("pulse_length_ns", default=1000.0, positive=True),
        "n_pulses": b.integer("n_pulses", default=1, minimum=1),
        "pulse_gap_ns": b.number("pulse_gap_ns", default=1000.0, minimum=0.0),
        "samples_per_pulse": b.integer("samples_per_pulse", default=400, minimum=8),
    }
    b.finish()
    return out


def _parse_cpt(b: _Block) -> dict:
    out = {
        "rabi_pump_mhz": b.number("rabi_pump_mhz", required=True, minimum=0.0),
        "rabi_probe_mhz": b.number("rabi_probe_mhz", required=True, minimum=0.0),
        "optical_rate_mhz": b.number("optical_rate_mhz", required=True, positive=True),
        "t2_star_ns": b.number("t2_star_ns", default=None, positive=True),
        "gamma_s_mhz": b.number("gamma_s_mhz", default=None, minimum=0.0),
        "f_s_ghz": b.number("f_s_ghz", default=6.8),
        "detuning_split": b.string("detuning_split", default="symmetric",
                                   choices=("symmetric", "probe")),
    }
    if (out["t2_star_ns"] is None) == (out["gamma_s_mhz"] is None):
        raise ConfigError("exactly one of t2_star_ns or gamma_s_mhz must be set",
                          field=b.path)
    b.finish()
    return out


def _parse_magnets(blocks) -> list:
    out = []
    for b in blocks:
        out.append({
            "center_mm": b.vector3("center_mm", required=True),
            "dimensions_mm": b.vector3("dimensions_mm", required=True),
            "remanence_t": b.vector3("remanence_t", required=True),
        })
        if any(c <= 0 for c in out[-1]["dimensions_mm"]):
            raise ConfigError("all dimensions must be positive",
                              field=f"{b.path}.dimensions_mm")
        b.finish()
    return out


def _parse_axis_spec(b: _Block, key) -> dict:
    sub = b.sub(key, required=True)
    out = {
        "start": sub.number("start", required=True),
        "stop": sub.number("stop", required=True),
        "points": sub.integer("points", required=True, minimum=1),
    }
    if out["points"] > 1 and out["stop"] <= out["start"]:
        raise ConfigError("stop must exceed start for multi-point axes",
                          field=sub.path)
    if out["points"] == 1 and out["stop"] != out["start"]:
        # a single-point axis samples `start` only
        raise ConfigError("stop must equal start for single-point axes",
                          field=sub.path)
    sub.finish()
    return out


def _parse_noise(b: _Block) -> dict:
    out = {"sigma_rel": b.number("sigma_rel", required=True, minimum=0.0)}
    b.finish()
    return out


# ---------------------------------------------------------------------------
# per-protocol schemas
# ---------------------------------------------------------------------------

def _validate_ple_scan(root: _Block) -> dict:
    emitters = [_parse_ple_emitter(e) for e in root.sublist("emitters", required=True)]
    scan = _parse_scan(root.sub("scan", required=True), "start_thz", "stop_thz")
    return {"emitters": emitters, "scan": scan}


def _validate_pump_probe(root: _Block) -> dict:
    emitter = _parse_ple_emitter(root.sub("emitter", required=True))
    pump = root.sub("pump", required=True)
    pump_out = {
        "parent": pump.string("parent", default="C", choices=tuple("ABCD")),
        "line": pump.string("line", default="2", choices=("1", "2", "3", "4")),
        "rabi_mhz": pump.number("rabi_mhz", required=True, minimum=0.0),
        "detuning_mhz": pump.number("detuning_mhz", default=0.0),
    }
    pump.finish()
    scan = _parse_scan(root.sub("scan", required=True),
                       "start_offset_ghz", "stop_offset_ghz")
    t1_ns = root.number("t1_ns", default=None, positive=True)
    return {"emitter": emitter, "pump": pump_out, "scan": scan, "t1_ns": t1_ns}


def _validate_spin_pumping(root: _Block) -> dict:
    return {"spin_pump": _parse_spin_pump(root.sub("spin_pump", required=True))}


def _validate_t1_recovery(root: _Block) -> dict:
    sp = _parse_spin_pump(root.sub("spin_pump", required=True))
    taus = _parse_scan(root.sub("taus", required=True), "start_ns", "stop_ns")
    return {"spin_pump": sp, "taus": taus}


def _validate_cpt_scan(root: _Block) -> dict:
    cpt = _parse_cpt(root.sub("cpt", required=True))
    scan = root.sub("scan", required=True)
    scan_out = {
        "span_mhz": scan.number("span_mhz", required=True, positive=True),
        "points": scan.integer("points", required=True, minimum=5),
    }
    scan.finish()
    return {"cpt": cpt, "scan": scan_out}


def _validate_cavity_fit(root: _Block) -> dict:
    synth = root.sub("synthetic", required=True)
    out = {
        "resonance_thz": synth.number("resonance_thz", required=True, positive=True),
        "kappa_ghz": synth.number("kappa_ghz", required=True, positive=True),
        "amplitude": synth.number("amplitude", default=1.0, positive=True),
        "offset": synth.number("offset", default=0.0, minimum=0.0),
        "span_ghz": synth.number("span_ghz", required=True, positive=True),
        "points": synth.integer("points", required=True, minimum=10),
        "noise_rel": synth.number("noise_rel", default=0.0, minimum=0.0),
    }
    synth.finish()
    return {"synthetic": out}


def _validate_saturation(root: _Block) -> dict:
    synth = root.sub("synthetic", required=True)
    out = {
        "gamma0_mhz": synth.number("gamma0_mhz", required=True, positive=True),
        "p_sat": synth.number("p_sat", required=True, positive=True),
        "power_max": synth.number("power_max", required=True, positive=True),
        "points": synth.integer("points", required=True, minimum=3),
        "noise_rel": synth.number("noise_rel", default=0.0, minimum=0.0),
    }
    synth.finish()
    return {"synthetic": out}


def _validate_magnet_map(root: _Block) -> dict:
    magnets = _parse_magnets(root.sublist("magnets", required=True))
    grid = root.sub("grid", required=True)
    grid_out = {
        "x_mm": _parse_axis_spec(grid, "x_mm"),
        "y_mm": _parse_axis_spec(grid, "y_mm"),
        "z_mm": _parse_axis_spec(grid, "z_mm"),
    }
    grid.finish()
    pcc = root.vector3("pcc_mm", required=True)
    return {"magnets": magnets, "grid": grid_out, "pcc_mm": pcc}


def _validate_cooperativity(root: _Block) -> dict:
    c = root.sub("cooperativity", required=True)
    out = {
        "gamma_on_mhz": c.number("gamma_on_mhz", required=True, positive=True),
        "gamma0_mhz": c.number("gamma0_mhz", required=True, positive=True),
        "kappa_ghz": c.number("kappa_ghz", required=True, positive=True),
        "detuning_over_kappa": c.number("detuning_over_kappa", default=0.0),
    }
    c.finish()
    return {"cooperativity": out}


_VALIDATORS = {
    "ple_scan": _validate_ple_scan,
    "pump_probe_scan": _validate_pump_probe,
    "spin_pumping": _validate_spin_pumping,
    "t1_recovery": _validate_t1_recovery,
    "cpt_scan": _validate_cpt_scan,
    "cavity_fit": _validate_cavity_fit,
    "saturation_study": _validate_saturation,
    "magnet_map": _validate_magnet_map,
    "cooperativity_report": _validate_cooperativity,
}

#: protocols whose scan output may carry optional seeded Gaussian noise
_NOISE_OK = {"ple_scan", "pump_probe_scan", "cpt_scan"}


def validate_tree(tree: dict, source_path: str = "") -> ProtocolConfig:
    """Validate a parsed configuration tree and fill defaults."""
    root = _Block(tree, "")
    protocol = root.string("protocol", required=True, choices=PROTOCOLS)
    seed = root.integer("seed", default=0, minimum=0)
    output_dir = root.string("output_dir", default="runs")
    noise_block = root.sub("noise")
    blocks = _VALIDATORS[protocol](root)
    if noise_block is not None:
        if protocol not in _NOISE_OK:
            raise ConfigError(
                f"protocol '{protocol}' does not accept a noise block",
                field="noise")
        blocks["noise"] = _parse_noise(noise_block)
    root.finish()
    return ProtocolConfig(protocol=protocol, seed=seed, blocks=blocks,
                          output_dir=output_dir, source_path=source_path)


def load_config(path) -> ProtocolConfig:
    """Load and validate one protocol configuration file (YAML)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        tree = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"cannot parse {path}{where}: {exc}")
    if not isinstance(tree, dict):
        raise ConfigError(f"{path} must contain a mapping at the top level")
    return validate_tree(tree, source_path=str(path))

"""Protocol configuration: YAML loading, schema validation, canonical hashing.

One protocol per file. Each protocol's keys are declared once, as a table
`{key: parser}` in `_SCHEMAS`; a nested block is a table of its own. One
walker, `_walk`, validates every block against its table: it parses the keys
in table order and fills defaults, runs the block's cross-field check, then
rejects unknown keys with the list of valid keys. Errors name the offending
field by dotted path, such as `emitters[0].model.ground.lambda_so_ghz`.

The leaves are `_number`, `_string` and `_vector3`, and the blocks are
`_block` and `_block_list`. A leaf without a default is required, and so is
every block but `noise`. A number's explicit null means unset; a null
string, 3-vector or block is an error. An integer leaf keeps an integer
input exact.

`_read_subset` reads the block YAML that configs use without importing
PyYAML: block mappings with identifier keys, block sequences (indented or
not) of scalars or compact `- key: ...` mappings, one-level flow `[...]` and
`{k: v}` collections of scalars, and comments. Its scalars are decimal ints,
floats with a point (and a signed exponent), identifier words other than
YAML 1.1's null and boolean words, quoted strings without escapes, quotes
or `#`, and an empty value (null). It declines everything else (tabs,
anchors, merges, tags, `yes`, `1e5`, a repeated key, a syntax error), and
`_yaml_tree` then parses the text with PyYAML, so every file means what
PyYAML says it means.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import namedtuple

from .errors import ConfigError

__all__ = ["ProtocolConfig", "load_config", "validate_tree", "PROTOCOLS"]

class ProtocolConfig(namedtuple(
        "ProtocolConfig", "protocol seed blocks output_dir",
        defaults=("runs",))):
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


# ---------------------------------------------------------------------------
# parsers and the walker
# ---------------------------------------------------------------------------

_ABSENT = object()  # the value of a key that the block does not hold
_REQUIRED = object()  # the default of a leaf that must be given


class _Bad(Exception):
    """A leaf's complaint; `_walk` raises it as a ConfigError at the leaf."""


def _at(path, key):
    return f"{path}.{key}" if path else key


def _is_number(v):
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) \
            and math.isfinite(v)
    except OverflowError:  # an int beyond the float64 range
        return False


def _unset(default):
    if default is _REQUIRED:
        raise _Bad("missing required field")
    return default


def _walk(table, data, path, check=None):
    """Validate the mapping `data` at dotted `path` against `table`."""
    if not isinstance(data, dict):
        raise ConfigError(f"expected a mapping, got {type(data).__name__}",
                          field=path)
    out = {}
    for key, parse in table.items():
        try:
            out[key] = parse(data.get(key, _ABSENT), path, key)
        except _Bad as exc:
            raise ConfigError(str(exc), field=_at(path, key)) from None
    if check is not None:
        check(out, path)
    unknown = [key for key in data if key not in table]
    if unknown:
        # YAML keys may be numbers too, which do not compare with strings
        raise ConfigError(f"unknown key(s) {sorted(unknown, key=str)}; "
                          f"valid keys here: {sorted(table)}",
                          field=path or "<root>")
    return out


def _number(default=_REQUIRED, minimum=None, maximum=None, positive=False,
            integer=False):
    def parse(v, path, key):
        if v is None or v is _ABSENT:  # an explicit null means unset
            return _unset(default)
        if not _is_number(v):
            raise _Bad(f"expected a finite number, got {v!r}")
        x = float(v)
        if positive and x <= 0:
            raise _Bad(f"must be positive, got {x}")
        if minimum is not None and x < minimum:
            raise _Bad(f"must be >= {minimum}, got {x}")
        if maximum is not None and x > maximum:
            raise _Bad(f"must be <= {maximum}, got {x}")
        if not integer:
            return x
        if isinstance(v, int):
            return v
        if x != int(x):
            raise _Bad(f"expected an integer, got {x}")
        return int(x)
    return parse


def _string(default=_REQUIRED, choices=None):
    def parse(v, path, key):
        if v is _ABSENT:
            return _unset(default)
        if not isinstance(v, str):
            raise _Bad(f"expected a string, got {v!r}")
        if choices is not None and v not in choices:
            raise _Bad(f"must be one of {sorted(choices)}, got {v!r}")
        return v
    parse.choices = choices
    return parse


def _vector3(default=_REQUIRED):
    def parse(v, path, key):
        if v is _ABSENT:
            return list(_unset(default))
        if not isinstance(v, (list, tuple)) or len(v) != 3 \
                or not all(_is_number(c) for c in v):
            raise _Bad(f"expected a 3-vector of numbers, got {v!r}")
        return [float(c) for c in v]
    return parse


def _block(table, check=None):
    def parse(v, path, key):
        if v is _ABSENT:
            raise _Bad("missing required block")
        return _walk(table, v, _at(path, key), check)
    parse.table = table
    return parse


def _block_list(table, check=None):
    def parse(v, path, key):
        if v is _ABSENT:
            raise _Bad("missing required block")
        if not isinstance(v, list) or not v:
            raise _Bad("expected a non-empty list of mappings")
        field = _at(path, key)
        return [_walk(table, item, f"{field}[{i}]", check)
                for i, item in enumerate(v)]
    parse.table = table
    return parse


# ---------------------------------------------------------------------------
# cross-field checks: check(parsed block, its path) after the keys parse
# ---------------------------------------------------------------------------

def _scan(start, stop, points):
    def check(out, path):
        if out[stop] <= out[start]:
            raise ConfigError(f"{stop} must exceed {start}", field=path)
    return _block({start: _number(), stop: _number(), "points": points}, check)


def _one_dephasing(out, path):
    if (out["t2_star_ns"] is None) == (out["gamma_s_mhz"] is None):
        raise ConfigError("exactly one of t2_star_ns or gamma_s_mhz must be set",
                          field=path)


def _positive_dimensions(out, path):
    if any(c <= 0 for c in out["dimensions_mm"]):
        raise ConfigError("all dimensions must be positive",
                          field=f"{path}.dimensions_mm")


def _pulse_samples(out, path):
    total = out["n_pulses"] * out["samples_per_pulse"]
    if total > _MAX_SAMPLES:
        raise ConfigError(f"n_pulses * samples_per_pulse is {total}, more than "
                          f"the {_MAX_SAMPLES} samples that fit the memory "
                          "budget", field=path)


def _grid_size(out, path):
    total = math.prod(out[key]["points"] for key in out)
    if total > _MAX_GRID_POINTS:
        raise ConfigError(f"grid has {total} points, more than the "
                          f"{_MAX_GRID_POINTS} that fit the memory budget",
                          field=path)


def _axis_span(out, path):
    if out["points"] > 1 and out["stop"] <= out["start"]:
        raise ConfigError("stop must exceed start for multi-point axes",
                          field=path)
    if out["points"] == 1 and out["stop"] != out["start"]:
        # a single-point axis samples `start` only
        raise ConfigError("stop must equal start for single-point axes",
                          field=path)


# ---------------------------------------------------------------------------
# per-protocol schemas
# ---------------------------------------------------------------------------

# Count leaves are bounded by one memory budget: a count's maximum is
# _MEMORY_BUDGET (1 GiB) over the bytes per counted point of the largest array
# that its protocol allocates (a complex128 is 16 B, a float64 8 B):
#   pump_probe_scan scan.points   4096  a bordered 16 x 16 Liouvillian (4 levels)
#   cpt_scan scan.points          1296  a bordered 9 x 9 Liouvillian (3 levels)
#   spin_pump.samples_per_pulse,   256  a propagated 4 x 4 density matrix per
#   spin_pump.n_pulses and              sample or delay
#   t1_recovery taus.points
#   cavity_fit synthetic.points     32  a Jacobian row of 4 parameters
#   magnet_map grid.*.points        24  a row of the (N, 3) points or fields
#   saturation_study                16  a Jacobian row of 2 parameters
#     synthetic.points
#   ple_scan scan.points             8  a float64 signal value
# A pulse train's samples, n_pulses * samples_per_pulse, and a grid's points,
# the product of its three axes, have the same bound, in their block's
# cross-field check.
_MEMORY_BUDGET = 2 ** 30
_MAX_SAMPLES = _MEMORY_BUDGET // 256
_MAX_GRID_POINTS = _MEMORY_BUDGET // 24


def _count(minimum, bytes_per_point, default=_REQUIRED):
    return _number(default=default, minimum=minimum, integer=True,
                   maximum=_MEMORY_BUDGET // bytes_per_point)


_MANIFOLD = {
    "lambda_so_ghz": _number(positive=True),
    "strain_alpha_ghz": _number(default=0.0),
    "strain_beta_ghz": _number(default=0.0),
    "quench_f": _number(default=0.1, minimum=0.0, maximum=1.0),
    "g_spin": _number(default=2.0, positive=True),
}

_PLE_EMITTER = {
    "model": _block({
        "ground": _block(_MANIFOLD),
        "excited": _block(_MANIFOLD),
        "zpl_center_thz": _number(positive=True),
        "b_field_t": _vector3(default=(0.0, 0.0, 0.0)),
        "axis": _vector3(default=(0.0, 0.0, 1.0)),
    }),
    "linewidth_mhz": _number(positive=True),
    "rabi_mhz": _number(minimum=0.0),
    "temperature_k": _number(default=4.0, positive=True),
}

# a T1 run probes with one pulse after each delay: it reads no pulse-train
# keys, so only spin_pumping accepts n_pulses and pulse_gap_ns
_SPIN_PUMP = {
    "rabi_mhz": _number(minimum=0.0),
    "optical_rate_mhz": _number(positive=True),
    "eta": _number(minimum=0.0, maximum=1.0),
    "t1_ns": _number(positive=True),
    "background": _number(default=0.0, minimum=0.0),
    "pulse_length_ns": _number(default=1000.0, positive=True),
    "samples_per_pulse": _count(8, 256, default=400),
}

_AXIS = _block({"start": _number(), "stop": _number(), "points": _count(1, 24)},
               _axis_span)

_SCHEMAS = {
    "ple_scan": {
        "emitters": _block_list(_PLE_EMITTER),
        "scan": _scan("start_thz", "stop_thz", _count(2, 8)),
    },
    "pump_probe_scan": {
        "emitter": _block(_PLE_EMITTER),
        "pump": _block({
            "parent": _string(default="C", choices=tuple("ABCD")),
            "line": _string(default="2", choices=("1", "2", "3", "4")),
            "rabi_mhz": _number(minimum=0.0),
            "detuning_mhz": _number(default=0.0),
        }),
        "scan": _scan("start_offset_ghz", "stop_offset_ghz", _count(2, 4096)),
        "t1_ns": _number(default=None, positive=True),
    },
    "spin_pumping": {"spin_pump": _block({
        **_SPIN_PUMP,
        "n_pulses": _count(1, 256, default=1),
        "pulse_gap_ns": _number(default=1000.0, minimum=0.0),
    }, _pulse_samples)},
    "t1_recovery": {"spin_pump": _block(_SPIN_PUMP),
                    "taus": _scan("start_ns", "stop_ns", _count(2, 256))},
    "cpt_scan": {
        "cpt": _block({
            "rabi_pump_mhz": _number(minimum=0.0),
            "rabi_probe_mhz": _number(minimum=0.0),
            "optical_rate_mhz": _number(positive=True),
            "t2_star_ns": _number(default=None, positive=True),
            "gamma_s_mhz": _number(default=None, minimum=0.0),
            "f_s_ghz": _number(default=6.8),
            "detuning_split": _string(default="symmetric",
                                      choices=("symmetric", "probe")),
        }, _one_dephasing),
        "scan": _block({"span_mhz": _number(positive=True),
                        "points": _count(5, 1296)}),
    },
    "cavity_fit": {"synthetic": _block({
        "resonance_thz": _number(positive=True),
        "kappa_ghz": _number(positive=True),
        "amplitude": _number(default=1.0, positive=True),
        "offset": _number(default=0.0, minimum=0.0),
        "span_ghz": _number(positive=True),
        "points": _count(10, 32),
        "noise_rel": _number(default=0.0, minimum=0.0),
    })},
    "saturation_study": {"synthetic": _block({
        "gamma0_mhz": _number(positive=True),
        "p_sat": _number(positive=True),
        "power_max": _number(positive=True),
        "points": _count(3, 16),
        "noise_rel": _number(default=0.0, minimum=0.0),
    })},
    "magnet_map": {
        "magnets": _block_list({"center_mm": _vector3(),
                                "dimensions_mm": _vector3(),
                                "remanence_t": _vector3()},
                               _positive_dimensions),
        "grid": _block({"x_mm": _AXIS, "y_mm": _AXIS, "z_mm": _AXIS}, _grid_size),
        "pcc_mm": _vector3(),
    },
    "cooperativity_report": {"cooperativity": _block({
        "gamma_on_mhz": _number(positive=True),
        "gamma0_mhz": _number(positive=True),
        "kappa_ghz": _number(positive=True),
        "detuning_over_kappa": _number(default=0.0),
    })},
}

#: every protocol name, in schema order
PROTOCOLS = tuple(_SCHEMAS)

#: protocols whose scan output may carry optional seeded Gaussian noise
_NOISE_OK = {"ple_scan", "pump_probe_scan", "cpt_scan"}
_NOISE = {"sigma_rel": _number(minimum=0.0)}


def _noise(protocol):
    def parse(v, path, key):
        if v is _ABSENT:
            return None
        # a value that is not a mapping fails as such in `_walk`
        if protocol not in _NOISE_OK and isinstance(v, dict):
            raise _Bad(f"protocol '{protocol}' does not accept a noise block")
        return _walk(_NOISE, v, _at(path, key))
    return parse


def _root(protocol):
    return {"protocol": _string(choices=PROTOCOLS),
            "seed": _number(default=0, minimum=0, integer=True),
            "output_dir": _string(default="runs"),
            **_SCHEMAS[protocol],
            "noise": _noise(protocol)}


_ROOTS = {protocol: _root(protocol) for protocol in PROTOCOLS}


def validate_tree(tree: dict) -> ProtocolConfig:
    """Validate a parsed configuration tree and fill defaults."""
    protocol = tree.get("protocol") if isinstance(tree, dict) else None
    # a missing or unknown protocol fails at the first key of any root table
    blocks = _walk(_ROOTS[protocol if protocol in PROTOCOLS else PROTOCOLS[0]],
                   tree, "")
    protocol, seed, output_dir = (blocks.pop(key) for key in
                                  ("protocol", "seed", "output_dir"))
    if blocks["noise"] is None:
        del blocks["noise"]
    return ProtocolConfig(protocol=protocol, seed=seed, blocks=blocks,
                          output_dir=output_dir)


# ---------------------------------------------------------------------------
# YAML loading: the subset reader and the PyYAML fallback
# ---------------------------------------------------------------------------

# a key, then a colon that ends the line or is followed by a space; PyYAML
# limits a simple key to 1024 characters
_KEY = re.compile(r"([A-Za-z_][A-Za-z0-9_]{0,999}):(?: +|$)")
# the scalars of YAML 1.1 whose value every resolver agrees on; PyYAML reads
# `1e5` as a string, so a float needs its point and an exponent its sign
_SCALAR = re.compile(r"(?P<int>[-+]?(?:0|[1-9][0-9]*))"
                     r"|(?P<float>[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?)"
                     r"|(?P<str>[A-Za-z_][A-Za-z0-9_]*)"
                     r"|\"(?P<dq>[^\"\\#]*)\"|'(?P<sq>[^'#]*)'")
# the words that YAML 1.1 reads as null or as a boolean
_NOT_WORDS = frozenset("null Null NULL yes Yes YES no No NO true True TRUE "
                       "false False FALSE on On ON off Off OFF".split())
_PRINTABLE = re.compile(r"[\n -~]*")  # no tab, CR or non-ASCII character
_CAST = {"int": int, "float": float, "str": str, "dq": str, "sq": str}


def _scalar(text):
    match = _SCALAR.fullmatch(text)
    if match is None or match["str"] in _NOT_WORDS:
        raise ValueError(text)
    return _CAST[match.lastgroup](match[match.lastgroup])


def _key(text, keys):
    match = _KEY.match(text)
    if match is None or match[1] in _NOT_WORDS or match[1] in keys:
        raise ValueError(text)  # a duplicate is left for PyYAML to name
    return match[1], text[match.end():]


def _inline(text):
    """The value that follows `key: ` or `- ` on its line."""
    if text[:1] + text[-1:] not in ("[]", "{}"):
        return _scalar(text) if text else None
    items = text[1:-1].split(",") if text[1:-1].strip(" ") else []
    if text[0] == "[":
        return [_scalar(item.strip(" ")) for item in items]
    out = {}
    for item in items:
        key, value = _key(item.strip(" "), out)
        out[key] = _scalar(value)
    return out


def _is_item(content):
    return content == "-" or content.startswith("- ")


def _block_node(lines, i, indent):
    """The block node that starts at `lines[i]` in column `indent`, and the
    index of the line after it."""
    is_seq = _is_item(lines[i][1])
    out = [] if is_seq else {}
    while i < len(lines) and lines[i][0] == indent \
            and _is_item(lines[i][1]) == is_seq:
        content = lines[i][1]
        if is_seq:
            rest = content[1:].lstrip(" ")
            if _KEY.match(rest):  # a compact mapping, keyed in rest's column
                lines[i] = (indent + len(content) - len(rest), rest)
                value, i = _block_node(lines, i, lines[i][0])
            else:
                value, i = _value(lines, i, indent, rest, False)
            out.append(value)
        else:
            key, rest = _key(content, out)
            out[key], i = _value(lines, i, indent, rest, True)
    return out, i


def _value(lines, i, indent, rest, in_mapping):
    """The value of the key or item `lines[i]`, whose text after the
    indicator is `rest`; a mapping's value may be an indentless sequence."""
    i += 1
    below = lines[i][0] if i < len(lines) else -1
    if rest:
        if below > indent:  # a multi-line scalar or a syntax error
            raise ValueError(rest)
        return _inline(rest), i
    if below > indent or (below == indent and in_mapping
                          and _is_item(lines[i][1])):
        return _block_node(lines, i, below)
    return None, i


def _read_subset(text):
    """The tree of `text` if it is in the subset of YAML that configs use,
    else None, and PyYAML decides."""
    if not _PRINTABLE.fullmatch(text):
        return None
    lines = []
    for line in text.split("\n"):
        hash_at = line.find("#")
        if hash_at > 0 and line[hash_at - 1] != " ":
            return None
        content = line[:hash_at if hash_at >= 0 else None].strip(" ")
        if content:
            lines.append((len(line) - len(line.lstrip(" ")), content))
    if not lines:
        return None
    try:
        tree, end = _block_node(lines, 0, lines[0][0])
    except ValueError:  # outside the subset, or an int beyond int()'s limit
        return None
    return tree if end == len(lines) else None


def _yaml_tree(text, path):
    """Parse `text` with PyYAML, the reference parser for everything outside
    the subset, and turn its errors into a ConfigError."""
    import yaml

    class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        """Safe YAML loader that rejects a key repeated in one mapping. A
        key that a `<<` merge brings in may still be overridden."""

        def flatten_mapping(self, node):
            # a merge source is flattened again at each merge: check it once
            keys = () if hasattr(node, "keys_checked") else [
                k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
            super().flatten_mapping(node)
            node.keys_checked = True
            seen = set()
            for key_node in keys:
                if isinstance(key_node, yaml.ScalarNode):
                    key = self.construct_object(key_node)
                    if key in seen:
                        raise yaml.constructor.ConstructorError(
                            problem=f"duplicate key {key!r}",
                            problem_mark=key_node.start_mark)
                    seen.add(key)

    try:
        return yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        what = getattr(exc, "problem", None) or str(exc).partition("\n")[0]
        raise ConfigError(f"cannot parse {path}{where}: {what}")
    except ValueError as exc:  # a scalar Python cannot convert
        raise ConfigError(f"cannot parse {path}: {exc}")


def load_config(path) -> ProtocolConfig:
    """Load and validate one protocol configuration file (YAML)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}")
    except ValueError as exc:  # not UTF-8
        raise ConfigError(f"cannot parse {path}: {exc}")
    tree = _read_subset(text)
    if tree is None:
        tree = _yaml_tree(text, path)
    if not isinstance(tree, dict):
        raise ConfigError(f"{path} must contain a mapping at the top level")
    return validate_tree(tree)

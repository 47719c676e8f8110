"""Protocol configuration: parsing, schema validation, canonical hashing.

One protocol per file. Each protocol's keys are declared once, as a table
`{key: parser}` in `_SCHEMAS`; a nested block is a table of its own. One
walker, `_walk`, validates every block against its table: it parses the keys
in table order and fills defaults, runs the block's cross-field check, then
rejects unknown keys with the list of valid keys. Errors name the offending
field by dotted path, such as `emitters[0].model.ground.lambda_so_ghz`.

The leaves are `_number`, `_string` and `_vector3`, and the blocks are
`_block` and `_block_list`. Every number, and each component of a 3-vector,
has a declared range. A leaf without a default is required, and so is
every block but `noise`. A number's explicit null means unset; a null
string, 3-vector or block is an error. An integer leaf keeps an integer
input exact.

`_read_subset` parses a config's text. Its grammar is the part of block
YAML that configs use (README states it), and it reads each text as PyYAML
does; anything else, anchors and merges included, is a ConfigError that
names its line.
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
        # a tree built in Python may hold keys that do not compare with str
        raise ConfigError(f"unknown key(s) {sorted(unknown, key=str)}; "
                          f"valid keys here: {sorted(table)}",
                          field=path or "<root>")
    return out


def _number(maximum, minimum=0.0, default=_REQUIRED, positive=False,
            integer=False):
    def parse(v, path, key):
        if v is None or v is _ABSENT:  # an explicit null means unset
            return _unset(default)
        if not _is_number(v):
            raise _Bad(f"expected a finite number, got {v!r}")
        x = float(v)  # the bounds compare `v`, which keeps an integer exact
        if positive and v <= 0:
            raise _Bad(f"must be positive, got {x}")
        if v < minimum:
            raise _Bad(f"must be >= {minimum}, got {x}")
        if v > maximum:
            raise _Bad(f"must be <= {maximum}, got {x}")
        if not integer:
            return x
        if isinstance(v, int):
            return v
        if x != int(x):
            raise _Bad(f"expected an integer, got {x}")
        return int(x)
    parse.range, parse.default = (minimum, maximum, positive), default
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
    parse.choices, parse.default = choices, default
    return parse


def _vector3(maximum, minimum=None, default=_REQUIRED):
    """A 3-vector whose every component lies in [minimum, maximum], where
    `minimum` defaults to -maximum."""
    component = _number(maximum, -maximum if minimum is None else minimum)

    def parse(v, path, key):
        if v is _ABSENT:
            return list(_unset(default))
        if not isinstance(v, (list, tuple)) or len(v) != 3 \
                or not all(_is_number(c) for c in v):
            raise _Bad(f"expected a 3-vector of numbers, got {v!r}")
        for i, c in enumerate(v):
            try:
                component(c, path, key)
            except _Bad as exc:
                raise ConfigError(str(exc), field=f"{_at(path, key)}[{i}]") from None
        return [float(c) for c in v]
    parse.range, parse.default = component.range, default
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

def _scan(start, stop, points, end):
    def check(out, path):
        if out[stop] <= out[start]:
            raise ConfigError(f"{stop} must exceed {start}", field=path)
    return _block({start: end, stop: end, "points": points}, check)


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

# Every number leaf declares its physical range in its config unit (README
# tabulates them). Within the ranges each leaf is finite in SI units and a
# positive one nonzero, and so are the squares of the cavity fit's width and
# half span and of an emitter's linewidth, a saturation scan's power_max /
# p_sat and noisy data. Products of leaves that can still leave float64 are
# checked where they are computed: a rate times a duration (`propagate`), a
# scan's span over its points (`_linspace`), manifold energies against the
# optical line (`siv_levels`), a rate spread (`detuned_steady_states`) and
# the cavity-QED algebra (`cqed`).
_MHZ, _GHZ, _THZ = 1e7, 1e5, 1e4  # rates and detunings to 1e13 Hz
_NS, _MIN_NS = 1e12, 1e-3  # times to 1000 s; a positive one from 1 ps
_MM = 1e6  # coordinates and sizes to 1 km

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
    return _number(_MEMORY_BUDGET // bytes_per_point, minimum, default,
                   integer=True)


_MANIFOLD = {
    "lambda_so_ghz": _number(_GHZ, positive=True),
    "strain_alpha_ghz": _number(_GHZ, -_GHZ, default=0.0),
    "strain_beta_ghz": _number(_GHZ, -_GHZ, default=0.0),
    "quench_f": _number(1.0, default=0.1),
    "g_spin": _number(10.0, default=2.0, positive=True),
}

_PLE_EMITTER = {
    "model": _block({
        "ground": _block(_MANIFOLD),
        "excited": _block(_MANIFOLD),
        "zpl_center_thz": _number(_THZ, positive=True),
        "b_field_t": _vector3(100.0, default=(0.0, 0.0, 0.0)),
        "axis": _vector3(_MM, default=(0.0, 0.0, 1.0)),  # only its direction acts
    }),
    "linewidth_mhz": _number(_MHZ, 1e-6, positive=True),  # from 1 Hz
    "rabi_mhz": _number(_MHZ),
    "temperature_k": _number(1000.0, default=4.0, positive=True),
}

# a T1 run probes with one pulse after each delay: it reads no pulse-train
# keys, so only spin_pumping accepts n_pulses and pulse_gap_ns
_SPIN_PUMP = {
    "rabi_mhz": _number(_MHZ),
    "optical_rate_mhz": _number(_MHZ, positive=True),
    "eta": _number(1.0),
    "t1_ns": _number(_NS, _MIN_NS, positive=True),
    "background": _number(1e13, default=0.0),  # Hz, as the signal
    "pulse_length_ns": _number(_NS, _MIN_NS, default=1000.0, positive=True),
    "samples_per_pulse": _count(8, 256, default=400),
}

_END_MM = _number(_MM, -_MM)
_AXIS = _block({"start": _END_MM, "stop": _END_MM, "points": _count(1, 24)},
               _axis_span)

_SCHEMAS = {
    "ple_scan": {
        "emitters": _block_list(_PLE_EMITTER),
        "scan": _scan("start_thz", "stop_thz", _count(2, 8),
                      _number(_THZ, positive=True)),
    },
    "pump_probe_scan": {
        "emitter": _block(_PLE_EMITTER),
        "pump": _block({
            "parent": _string(default="C", choices=tuple("ABCD")),
            "line": _string(default="2", choices=("1", "2", "3", "4")),
            "rabi_mhz": _number(_MHZ),
            "detuning_mhz": _number(_MHZ, -_MHZ, default=0.0),
        }),
        "scan": _scan("start_offset_ghz", "stop_offset_ghz", _count(2, 4096),
                      _number(_GHZ, -_GHZ)),
        "t1_ns": _number(_NS, _MIN_NS, default=None, positive=True),
    },
    "spin_pumping": {"spin_pump": _block({
        **_SPIN_PUMP,
        "n_pulses": _count(1, 256, default=1),
        "pulse_gap_ns": _number(_NS, default=1000.0),
    }, _pulse_samples)},
    "t1_recovery": {"spin_pump": _block(_SPIN_PUMP),
                    "taus": _scan("start_ns", "stop_ns", _count(2, 256),
                                  _number(_NS))},
    "cpt_scan": {
        "cpt": _block({
            "rabi_pump_mhz": _number(_MHZ),
            "rabi_probe_mhz": _number(_MHZ),
            "optical_rate_mhz": _number(_MHZ, positive=True),
            "t2_star_ns": _number(_NS, _MIN_NS, default=None, positive=True),
            "gamma_s_mhz": _number(_MHZ, default=None),
            "f_s_ghz": _number(_GHZ, -_GHZ, default=6.8),
            "detuning_split": _string(default="symmetric",
                                      choices=("symmetric", "probe")),
        }, _one_dephasing),
        "scan": _block({"span_mhz": _number(_MHZ, positive=True),
                        "points": _count(5, 1296)}),
    },
    "cavity_fit": {"synthetic": _block({
        "resonance_thz": _number(_THZ, positive=True),
        "kappa_ghz": _number(_GHZ, 1e-6, positive=True),  # from 1 kHz
        "amplitude": _number(1e12, default=1.0, positive=True),
        "offset": _number(1e12, default=0.0),
        "span_ghz": _number(_GHZ, positive=True),
        "points": _count(10, 32),
        "noise_rel": _number(1.0, default=0.0),
    })},
    "saturation_study": {"synthetic": _block({
        "gamma0_mhz": _number(_MHZ, positive=True),
        "p_sat": _number(1e12, 1e-12, positive=True),
        "power_max": _number(1e12, 1e-12, positive=True),
        "points": _count(3, 16),
        "noise_rel": _number(1.0, default=0.0),
    })},
    "magnet_map": {
        "magnets": _block_list({"center_mm": _vector3(_MM),
                                "dimensions_mm": _vector3(_MM, 0.0),
                                "remanence_t": _vector3(10.0)},
                               _positive_dimensions),
        "grid": _block({"x_mm": _AXIS, "y_mm": _AXIS, "z_mm": _AXIS}, _grid_size),
        "pcc_mm": _vector3(_MM),
    },
    "cooperativity_report": {"cooperativity": _block({
        "gamma_on_mhz": _number(_MHZ, positive=True),
        "gamma0_mhz": _number(_MHZ, positive=True),
        "kappa_ghz": _number(_GHZ, positive=True),
        "detuning_over_kappa": _number(1e4, -1e4, default=0.0),
    })},
}

#: every protocol name, in schema order
PROTOCOLS = tuple(_SCHEMAS)

#: protocols whose scan output may carry optional seeded Gaussian noise
_NOISE_OK = {"ple_scan", "pump_probe_scan", "cpt_scan"}
_NOISE = {"sigma_rel": _number(1.0)}


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
            "seed": _number(2 ** 64 - 1, default=0, integer=True),
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
# the config grammar
# ---------------------------------------------------------------------------

class _Syntax(Exception):
    """Text outside the grammar: (its line number, what is wrong there)."""


# a key, then a colon that ends the line or is followed by a space; PyYAML
# limits a simple key to 1024 characters
_KEY = re.compile(r"([A-Za-z_][A-Za-z0-9_]{0,999}):(?: +|$)")
# the scalars that every YAML resolver reads alike: a float needs its point
# and an exponent its sign (PyYAML reads `1e5` as a string), and a plain
# string, a word or a path, starts with a letter, `_`, `/`, `./` or `../`,
# never like a number, a date or `.inf`
_SCALAR = re.compile(r"(?P<int>[-+]?(?:0|[1-9][0-9]*))"
                     r"|(?P<float>[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?)"
                     r"|(?P<str>(?:[A-Za-z_/]|\.\.?(?:/|$))[A-Za-z0-9_./-]*)"
                     r"|\"(?P<dq>[^\"\\#]*)\"|'(?P<sq>[^'#]*)'")
# the words that YAML 1.1 reads as null or as a boolean
_WORDS = {**dict.fromkeys("null Null NULL".split()),
          **dict.fromkeys("yes Yes YES true True TRUE on On ON".split(), True),
          **dict.fromkeys("no No NO false False FALSE off Off OFF".split(), False)}
_CAST = {"int": int, "float": float, "str": lambda s: _WORDS.get(s, s),
         "dq": str, "sq": str}
_UNPRINTABLE = re.compile(r"[^\n -~]")  # a tab, CR or non-ASCII character


def _outside(n, text, expected):
    """The _Syntax of `text` on line `n`, which is not the `expected` form."""
    if text.startswith(("&", "*", "<<", "!")):
        return _Syntax(n, "anchors, aliases, merge keys and tags are not part "
                          "of the config grammar")
    return _Syntax(n, f"expected {expected}, got {text!r}")


def _scalar(text, n):
    match = _SCALAR.fullmatch(text)
    if match is None:
        raise _outside(n, text, "an int, a float with a point, a word, a path "
                                "or a quoted string")
    try:
        return _CAST[match.lastgroup](match[match.lastgroup])
    except ValueError as exc:  # an int beyond int()'s digit limit
        raise _Syntax(n, str(exc)) from None


def _key(text, keys, n):
    match = _KEY.match(text)
    if match is None:
        raise _outside(n, text, "'key: value' with an identifier key")
    if match[1] in _WORDS:
        raise _Syntax(n, f"key {match[1]!r} reads as {_WORDS[match[1]]}")
    if match[1] in keys:
        raise _Syntax(n, f"duplicate key {match[1]!r}")
    return match[1], text[match.end():]


def _inline(text, n):
    """The value that follows `key: ` or `- ` on line `n`."""
    if text[:1] + text[-1:] not in ("[]", "{}"):
        return _scalar(text, n) if text else None
    items = text[1:-1].split(",") if text[1:-1].strip(" ") else []
    if text[0] == "[":
        return [_scalar(item.strip(" "), n) for item in items]
    out = {}
    for item in items:
        key, value = _key(item.strip(" "), out, n)
        out[key] = _scalar(value, n)
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
        _, content, n = lines[i]
        if is_seq:
            rest = content[1:].lstrip(" ")
            if _KEY.match(rest):  # a compact mapping, keyed in rest's column
                lines[i] = (indent + len(content) - len(rest), rest, n)
                value, i = _block_node(lines, i, lines[i][0])
            else:
                value, i = _value(lines, i, indent, rest, False)
            out.append(value)
        else:
            key, rest = _key(content, out, n)
            out[key], i = _value(lines, i, indent, rest, True)
    return out, i


def _value(lines, i, indent, rest, in_mapping):
    """The value of the key or item `lines[i]`, whose text after the
    indicator is `rest`; a mapping's value may be an indentless sequence."""
    n = lines[i][2]
    i += 1
    below = lines[i][0] if i < len(lines) else -1
    if rest:
        value = _inline(rest, n)
        if below > indent:  # a multi-line scalar, or a key under a value
            raise _Syntax(lines[i][2], "bad indentation")
        return value, i
    if below > indent or (below == indent and in_mapping
                          and _is_item(lines[i][1])):
        return _block_node(lines, i, below)
    return None, i


def _read_subset(text, path):
    """The tree of the config `text`, or None if it holds no node; a
    ConfigError names `path` and the line where the text leaves the grammar."""
    try:
        bad = _UNPRINTABLE.search(text)
        if bad:
            raise _Syntax(text.count("\n", 0, bad.start()) + 1,
                          f"character {bad[0]!r} is not allowed")
        lines = []
        for n, line in enumerate(text.split("\n"), 1):
            hash_at = line.find("#")
            if hash_at > 0 and line[hash_at - 1] != " ":
                raise _Syntax(n, "'#' starts a comment only after a space")
            content = line[:hash_at if hash_at >= 0 else None].strip(" ")
            if content:
                indent = len(line) - len(line.lstrip(" "))
                if indent > 100:  # nodes this deep would exhaust the stack
                    raise _Syntax(n, "indented by more than 100 spaces")
                lines.append((indent, content, n))
        if not lines:
            return None
        tree, end = _block_node(lines, 0, lines[0][0])
        if end < len(lines):
            raise _Syntax(lines[end][2], "bad indentation")
        return tree
    except _Syntax as exc:
        line, what = exc.args
        raise ConfigError(f"cannot parse {path} at line {line}: {what}") from None


def load_config(path) -> ProtocolConfig:
    """Load and validate one protocol configuration file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        text = data.decode("utf-8").replace("\r\n", "\n")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"cannot parse {path} at line {line}: {exc}") from None
    tree = _read_subset(text, path)
    if not isinstance(tree, dict):
        raise ConfigError(f"{path} must contain a mapping at the top level")
    return validate_tree(tree)

"""README's table of config leaves is the schema's.

The block between README.md's two marker lines lists every leaf of every
protocol in `sivcav.config._ROOTS`: its dotted key, unit, default and
declared range. A leaf's unit is the one in UNITS, or else its key's suffix
(`_mhz`, `_ns`, ...) or that of the axis it belongs to. A change to the
schema regenerates the block in place, from the root of the checkout, with

    PYTHONPATH=src python tests/test_config_reference.py
"""

from pathlib import Path

from sivcav.config import _NOISE, _NOISE_OK, _REQUIRED, _ROOTS, _block

README = Path(__file__).resolve().parents[1] / "README.md"
BEGIN = "<!-- config reference: generated by tests/test_config_reference.py -->"
END = "<!-- end of config reference -->"
SUFFIXES = {"_thz": "THz", "_ghz": "GHz", "_mhz": "MHz", "_ns": "ns", "_k": "K",
            "_t": "T", "_mm": "mm"}
#: leaves whose key carries no unit suffix; any other is dimensionless
UNITS = {"background": "Hz", "amplitude": "a.u.", "offset": "a.u.",
         "p_sat": "a.u.", "power_max": "a.u.", "points": "count",
         "n_pulses": "count", "samples_per_pulse": "count"}
COMMON = ("protocol", "seed", "output_dir")  # the run keys of every protocol


def leaves(table, path=()):
    """(dotted key, parser) of every leaf of `table`, in table order."""
    for key, parse in table.items():
        if hasattr(parse, "table"):
            yield from leaves(parse.table, path + (key,))
        else:
            yield ".".join(path + (key,)), parse


def schema():
    """(protocol column, dotted key, parser) of every leaf: the run keys
    once, then each protocol's blocks and, where it takes one, its noise."""
    for key in COMMON:
        yield "every protocol", key, _ROOTS["cpt_scan"][key]
    for protocol, root in _ROOTS.items():
        table = {k: v for k, v in root.items() if k not in COMMON + ("noise",)}
        if protocol in _NOISE_OK:
            table["noise"] = _block(_NOISE)
        for key, parse in leaves(table):
            yield f"`{protocol}`", key, parse


def show(x):
    if isinstance(x, (list, tuple)):
        return "(" + ", ".join(show(c) for c in x) + ")"
    if isinstance(x, str):
        return f"`{x}`"
    return f"{x:g}" if isinstance(x, float) else str(x)


def unit(key, parse):
    name = key.rsplit(".", 1)[-1]
    if hasattr(parse, "choices") or name == "seed":
        return ""
    if name in UNITS:
        return UNITS[name]
    for part in reversed(key.split(".")):
        for suffix, symbol in SUFFIXES.items():
            if part.endswith(suffix):
                return symbol
    return "1"


def default(parse):
    if parse.default is _REQUIRED:
        return "required"
    return "unset" if parse.default is None else show(parse.default)


def span(parse):
    if hasattr(parse, "choices"):
        return "any string" if parse.choices is None else \
            "one of " + ", ".join(show(c) for c in parse.choices)
    minimum, maximum, positive = parse.range
    text = ("(0" if positive and minimum <= 0 else f"[{show(minimum)}") \
        + f", {show(maximum)}]"
    vector = parse.__qualname__.startswith("_vector3")
    return f"each component in {text}" if vector else text


def rendered():
    rows = [f"| {protocol} | `{key}` | {unit(key, parse)} | {default(parse)} "
            f"| {span(parse)} |" for protocol, key, parse in schema()]
    return "\n".join([BEGIN, "| protocol | key | unit | default | range |",
                      "| --- | --- | --- | --- | --- |", *rows, END])


def test_readme_table_is_the_schema():
    text = README.read_text()
    assert text.count(BEGIN) == 1 and text.count(END) == 1
    block = text[text.index(BEGIN):text.index(END) + len(END)]
    assert block == rendered(), ("README's config reference is stale: run "
                                 "PYTHONPATH=src python tests/test_config_reference.py")


if __name__ == "__main__":
    head, rest = README.read_text().split(BEGIN)
    README.write_text(head + rendered() + rest.split(END, 1)[1])

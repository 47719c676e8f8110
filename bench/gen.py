"""Seeded config generator for the in-process workloads.

A pass holds COPIES ops of each kind in LAYOUT; each op has its own config,
made from a shipped config under `configs/`. The point counts are fixed and
small, so that one op takes tens of milliseconds. The seed draws physical
parameters from fixed ranges around the shipped values. Every drawn
parameter leaves the work per op unchanged:

* `steady-scan` draws drive strengths, rates and splittings, but keeps the
  pump-probe emitter model, so each scan point builds the same reduced
  system;
* `pulse-train` draws the branching ratio, T1 and the background, but keeps
  the optical rate and Rabi frequency that set the integrator's step count;
* `field-map` draws the remanence magnitudes along x, so the masked points
  and the charged faces stay the same.

The same (workload, seed) gives byte-identical files.
"""

from __future__ import annotations

import os
import random

import yaml

#: workload -> [(op kind, shipped template, items per op)]
LAYOUT = {
    "steady-scan": [("cpt", "fig4_cpt.cfg", 121),
                    ("pump_probe", "fig2_pump_probe.cfg", 121)],
    "pulse-train": [("t1", "fig4_t1.cfg", 5),
                    ("spin_pumping", "fig4_spin_pumping.cfg", 2)],
    "field-map": [("magnet_map", "fig2_magnet_map.cfg", 41 * 21)],
}
#: ops of each kind per pass, each with its own drawn parameters
COPIES = 4


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _steady_scan(kind, tree, rng):
    if kind == "cpt":
        cpt = tree["cpt"]
        cpt["rabi_pump_mhz"] = _draw(rng, 2.5, 3.5)
        cpt["rabi_probe_mhz"] = _draw(rng, 2.5, 3.5)
        cpt["optical_rate_mhz"] = _draw(rng, 140.0, 175.0)
        cpt["t2_star_ns"] = _draw(rng, 85.0, 110.0)
        cpt["f_s_ghz"] = _draw(rng, 6.5, 7.1)
        tree["scan"]["points"] = 121
    else:
        tree["emitter"]["rabi_mhz"] = _draw(rng, 12.0, 18.0)
        tree["emitter"]["temperature_k"] = _draw(rng, 3.5, 4.5)
        tree["pump"]["rabi_mhz"] = _draw(rng, 25.0, 35.0)
        tree["pump"]["detuning_mhz"] = _draw(rng, -5.0, 5.0)
        tree["t1_ns"] = _draw(rng, 500.0, 800.0)
        tree["scan"]["points"] = 121


def _pulse_train(kind, tree, rng):
    sp = tree["spin_pump"]
    sp["eta"] = _draw(rng, 0.12, 0.18)
    sp["t1_ns"] = _draw(rng, 550.0, 720.0)
    sp["background"] = _draw(rng, 3.0e6, 6.0e6)
    if kind == "t1":
        tree["taus"]["points"] = 5
    else:
        sp["n_pulses"] = 2


def _field_map(kind, tree, rng):
    for magnet in tree["magnets"]:
        magnet["remanence_t"] = [_draw(rng, 1.25, 1.45), 0.0, 0.0]
    tree["grid"] = {
        "x_mm": {"start": -20.0, "stop": 20.0, "points": 41},
        "y_mm": {"start": 0.0, "stop": 0.0, "points": 1},
        "z_mm": {"start": -10.0, "stop": 10.0, "points": 21},
    }
    tree["pcc_mm"] = [_draw(rng, 0.6, 1.6), 0.0, 0.0]


_MUTATORS = {"steady-scan": _steady_scan, "pulse-train": _pulse_train,
             "field-map": _field_map}


def config_texts(workload: str, seed: int, shipped_dir: str) -> dict:
    """{file name: YAML text} of the workload's configs for `seed`."""
    rng = random.Random(f"{workload}/{seed}")
    out = {}
    for copy in range(COPIES):
        for kind, template, _items in LAYOUT[workload]:
            with open(os.path.join(shipped_dir, template), encoding="utf-8") as fh:
                tree = yaml.safe_load(fh)
            tree["seed"] = rng.randrange(2 ** 31)
            _MUTATORS[workload](kind, tree, rng)
            out[f"{kind}-{copy}.cfg"] = yaml.safe_dump(
                tree, sort_keys=True, default_flow_style=False)
    return out


def write_configs(workload: str, seed: int, shipped_dir: str,
                  out_dir: str) -> list:
    """Write the workload's configs for `seed`; returns their paths in op order."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, text in config_texts(workload, seed, shipped_dir).items():
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return paths


def op_kind(name: str) -> str:
    """Op kind of a generated config file name (`cpt-3.cfg` -> `cpt`)."""
    return name.rsplit("-", 1)[0]


def items_per_pass(workload: str) -> int:
    return COPIES * sum(items for _k, _t, items in LAYOUT[workload])

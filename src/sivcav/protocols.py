"""Experiment protocols: wire the physics modules into reproducible runs.

Each protocol writes `data.csv`, `fits.json` and `manifest.json` into
`<out>/<protocol>-<hash8>/`. Data and fit files are deterministic for a fixed
(config, seed) pair, byte for byte; the manifest additionally carries wall
clock timestamps. All files are written atomically (temp file + rename) and
partial outputs are removed if a run fails.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from ._table import csv_text
from .config import ProtocolConfig
from .constants import TWO_PI
from .cqed import (
    cooperativity_from_linewidths,
    g_from_cooperativity,
    lorentzian,
    purcell_broadened_linewidth,
    q_factor,
)
from .dynamics import (
    CptParams,
    PleEmitter,
    SpinPumpParams,
    extract_initialization_fidelity,
    simulate_cpt_scan,
    simulate_ple_scan,
    simulate_spin_pumping,
    simulate_t1_recovery,
)
from .errors import SivCavError
from .fitting import Spectrum, fit_cpt_dip, fit_exponential, fit_lorentzian, \
    fit_saturation
from .magnetics import CuboidMagnet, assembly_field, field_angle, \
    field_map_grid, field_map_to_csv
from .siv_levels import ManifoldParams, SivModel, spin_splitting, transition_table

__all__ = ["RunManifest", "run_protocol", "build_siv_model", "build_ple_emitter",
           "build_spin_pump_params", "build_cpt_params", "build_magnets"]


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    version: str
    protocol: str
    outputs: tuple
    started: str
    finished: str
    out_dir: str

    def as_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "version": self.version,
            "protocol": self.protocol,
            "outputs": list(self.outputs),
            "started": self.started,
            "finished": self.finished,
        }


# ---------------------------------------------------------------------------
# config-to-domain builders
# ---------------------------------------------------------------------------

def _build_manifold(d: dict) -> ManifoldParams:
    return ManifoldParams(
        lambda_so=d["lambda_so_ghz"] * 1e9,
        strain_alpha=d["strain_alpha_ghz"] * 1e9,
        strain_beta=d["strain_beta_ghz"] * 1e9,
        quench_f=d["quench_f"],
        g_spin=d["g_spin"],
    )


def build_siv_model(d: dict) -> SivModel:
    return SivModel(
        ground=_build_manifold(d["ground"]),
        excited=_build_manifold(d["excited"]),
        zpl_center=d["zpl_center_thz"] * 1e12,
        b_field=tuple(d["b_field_t"]),
        axis=tuple(d["axis"]),
    )


def build_ple_emitter(d: dict) -> PleEmitter:
    model = build_siv_model(d["model"])
    return PleEmitter(
        table=transition_table(model),
        linewidth=d["linewidth_mhz"] * 1e6,
        rabi=d["rabi_mhz"] * 1e6,
        temperature=d["temperature_k"],
    )


def build_spin_pump_params(d: dict) -> SpinPumpParams:
    return SpinPumpParams(
        rabi_freq=d["rabi_mhz"] * 1e6,
        optical_rate=d["optical_rate_mhz"] * 1e6,
        eta=d["eta"],
        t1=d["t1_ns"] * 1e-9,
        f_s_ground=d["f_s_ground_ghz"] * 1e9,
        f_s_excited=d["f_s_excited_ghz"] * 1e9,
        background=d["background"],
        pulse_length=d["pulse_length_ns"] * 1e-9,
        n_pulses=d["n_pulses"],
        pulse_gap=d["pulse_gap_ns"] * 1e-9,
        samples_per_pulse=d["samples_per_pulse"],
    )


def build_cpt_params(d: dict) -> CptParams:
    if d["t2_star_ns"] is not None:
        gamma_s = 1.0 / (TWO_PI * d["t2_star_ns"] * 1e-9)
    else:
        gamma_s = d["gamma_s_mhz"] * 1e6
    return CptParams(
        rabi_pump=d["rabi_pump_mhz"] * 1e6,
        rabi_probe=d["rabi_probe_mhz"] * 1e6,
        optical_rate=d["optical_rate_mhz"] * 1e6,
        gamma_s=gamma_s,
        f_s=d["f_s_ghz"] * 1e9,
        detuning_split=d["detuning_split"],
    )


def build_magnets(items: list) -> list:
    return [CuboidMagnet(center=tuple(1e-3 * np.array(m["center_mm"])),
                         dimensions=tuple(1e-3 * np.array(m["dimensions_mm"])),
                         magnetization=tuple(m["remanence_t"]))
            for m in items]


# ---------------------------------------------------------------------------
# deterministic output helpers
# ---------------------------------------------------------------------------

def _write_atomic(path: str, text: str):
    d = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(headers, columns) -> str:
    return csv_text(headers, columns, ["%.12e"] * len(columns))


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _maybe_noise(y: np.ndarray, cfg: ProtocolConfig, rng) -> np.ndarray:
    noise = cfg.blocks.get("noise")
    if not noise or noise["sigma_rel"] == 0.0:
        return y
    scale = float(np.max(np.abs(y)))
    return y + rng.normal(0.0, noise["sigma_rel"] * scale, size=y.shape)


# ---------------------------------------------------------------------------
# protocol implementations: each returns (data_csv_text, fits_payload)
# ---------------------------------------------------------------------------

def _run_ple_scan(cfg, rng):
    emitters = [build_ple_emitter(e) for e in cfg.blocks["emitters"]]
    scan = cfg.blocks["scan"]
    freqs = np.linspace(scan["start_thz"] * 1e12, scan["stop_thz"] * 1e12,
                        scan["points"])
    spec = simulate_ple_scan(emitters, freqs)
    y = _maybe_noise(spec.y, cfg, rng)
    return _csv(["x", "value"], [spec.x, y]), {}


def _run_pump_probe(cfg, rng):
    emitter = build_ple_emitter(cfg.blocks["emitter"])
    pump_cfg = cfg.blocks["pump"]
    target = [t for t in emitter.table.sublevel
              if t.parent == pump_cfg["parent"] and t.label == pump_cfg["line"]]
    if not target:
        raise SivCavError(
            f"pump line {pump_cfg['parent']}{pump_cfg['line']} not in table")
    pump_freq = target[0].frequency + pump_cfg["detuning_mhz"] * 1e6
    parent_freq = [o.frequency for o in emitter.table.optical
                   if o.label == pump_cfg["parent"]][0]
    scan = cfg.blocks["scan"]
    freqs = np.linspace(parent_freq + scan["start_offset_ghz"] * 1e9,
                        parent_freq + scan["stop_offset_ghz"] * 1e9,
                        scan["points"])
    t1 = cfg.blocks["t1_ns"] * 1e-9 if cfg.blocks["t1_ns"] else None
    with_pump = simulate_ple_scan([emitter], freqs,
                                  pump=(pump_freq, pump_cfg["rabi_mhz"] * 1e6),
                                  t1=t1)
    without = simulate_ple_scan([emitter], freqs)
    y_pump = _maybe_noise(with_pump.y, cfg, rng)
    fits = {"pump_frequency_hz": pump_freq,
            "spin_splitting_ghz": {
                k: v / 1e9 if isinstance(v, float) else v
                for k, v in spin_splitting(
                    build_siv_model(cfg.blocks["emitter"]["model"])).items()}}
    return _csv(["x", "value", "value_no_pump"],
                [freqs, y_pump, without.y]), fits


def _run_spin_pumping(cfg, rng):
    params = build_spin_pump_params(cfg.blocks["spin_pump"])
    traces = simulate_spin_pumping(params)
    times = np.concatenate([t.times for t in traces])
    signal = np.concatenate([t.signal for t in traces])
    pops = np.vstack([t.populations for t in traces])
    first = traces[0]
    i_peak = int(np.argmax(first.signal))
    fit = fit_exponential(Spectrum(first.times[i_peak:] - first.times[i_peak],
                                   first.signal[i_peak:], x_unit="s"), "decay")
    fits = {
        "initialization": {
            "timescale_ns": fit["timescale"] * 1e9,
            "timescale_sigma_ns": fit.sigma_of("timescale") * 1e9,
            "fidelity": extract_initialization_fidelity(first),
            "converged": fit.converged,
        }
    }
    headers = ["x", "value"] + [f"pop_{lb}" for lb in traces[0].labels]
    cols = [times, signal] + [pops[:, i] for i in range(pops.shape[1])]
    return _csv(headers, cols), fits


def _run_t1_recovery(cfg, rng):
    params = build_spin_pump_params(cfg.blocks["spin_pump"])
    taus_cfg = cfg.blocks["taus"]
    taus = np.linspace(taus_cfg["start_ns"] * 1e-9, taus_cfg["stop_ns"] * 1e-9,
                       taus_cfg["points"])
    spec = simulate_t1_recovery(params, taus)
    fit = fit_exponential(spec, kind="recovery")
    fits = {
        "t1_recovery": {
            "t1_ns": fit["timescale"] * 1e9,
            "t1_sigma_ns": fit.sigma_of("timescale") * 1e9,
            "configured_t1_ns": params.t1 * 1e9,
            "converged": fit.converged,
        }
    }
    return _csv(["x", "value"], [spec.x, spec.y]), fits


def _run_cpt_scan(cfg, rng):
    params = build_cpt_params(cfg.blocks["cpt"])
    scan = cfg.blocks["scan"]
    half = 0.5 * scan["span_mhz"] * 1e6
    detunings = np.linspace(-half, half, scan["points"])
    spec = simulate_cpt_scan(params, detunings)
    y = _maybe_noise(spec.y, cfg, rng)
    result, _band = fit_cpt_dip(Spectrum(detunings, y, x_unit="Hz"))
    fits = {
        "cpt_dip": {
            "dip_fwhm_mhz": result["dip_fwhm"] / 1e6,
            "dip_fwhm_sigma_mhz": result.sigma_of("dip_fwhm") / 1e6,
            "dip_center_mhz": result["dip_center"] / 1e6,
            "depth": result["depth"],
            "background": result["background"],
            "dark_linewidth_limit_mhz": params.dark_dip_fwhm() / 1e6,
            "converged": result.converged,
        }
    }
    return _csv(["x", "value"], [detunings, y]), fits


def _run_cavity_fit(cfg, rng):
    s = cfg.blocks["synthetic"]
    center = s["resonance_thz"] * 1e12
    kappa = s["kappa_ghz"] * 1e9
    half_span = 0.5 * s["span_ghz"] * 1e9
    nu = np.linspace(center - half_span, center + half_span, s["points"])
    y = lorentzian(nu, center, kappa, s["amplitude"], s["offset"])
    if s["noise_rel"] > 0:
        y = y + rng.normal(0.0, s["noise_rel"] * s["amplitude"], size=y.shape)
    fit = fit_lorentzian(Spectrum(nu, y, x_unit="Hz"))
    fits = {
        "cavity": {
            "kappa_ghz": fit["fwhm"] / 1e9,
            "kappa_sigma_ghz": fit.sigma_of("fwhm") / 1e9,
            "center_thz": fit["center"] / 1e12,
            "q_factor": q_factor(fit["center"], fit["fwhm"]),
            "converged": fit.converged,
        }
    }
    return _csv(["x", "value"], [nu, y]), fits


def _run_saturation(cfg, rng):
    s = cfg.blocks["synthetic"]
    powers = np.linspace(s["power_max"] / s["points"], s["power_max"], s["points"])
    gamma0 = s["gamma0_mhz"] * 1e6
    y = gamma0 * np.sqrt(1.0 + powers / s["p_sat"])
    if s["noise_rel"] > 0:
        y = y * (1.0 + rng.normal(0.0, s["noise_rel"], size=y.shape))
    fit = fit_saturation(Spectrum(powers, y, x_unit="W"))
    fits = {
        "saturation": {
            "gamma0_mhz": fit["gamma0"] / 1e6,
            "gamma0_sigma_mhz": fit.sigma_of("gamma0") / 1e6,
            "p_sat": fit["p_sat"],
            "true_gamma0_mhz": s["gamma0_mhz"],
            "converged": fit.converged,
        }
    }
    return _csv(["x", "value"], [powers, y]), fits


def _run_magnet_map(cfg, rng):
    magnets = build_magnets(cfg.blocks["magnets"])
    axes = []
    for key in ("x_mm", "y_mm", "z_mm"):
        a = cfg.blocks["grid"][key]
        axes.append(np.linspace(a["start"] * 1e-3, a["stop"] * 1e-3, a["points"]))
    points, b, masked = field_map_grid(magnets, *axes)
    pcc = 1e-3 * np.array(cfg.blocks["pcc_mm"])
    b_pcc = assembly_field(magnets, pcc)
    fits = {
        "pcc": {
            "point_mm": list(np.array(cfg.blocks["pcc_mm"], dtype=float)),
            "b_t": [float(v) for v in b_pcc],
            "magnitude_t": float(np.linalg.norm(b_pcc)),
            "angle_from_x_deg": field_angle(b_pcc, (1.0, 0.0, 0.0)),
        }
    }
    return field_map_to_csv(points, b, masked), fits


def _run_cooperativity(cfg, rng):
    c = cfg.blocks["cooperativity"]
    gamma_on = c["gamma_on_mhz"] * 1e6
    gamma0 = c["gamma0_mhz"] * 1e6
    kappa = c["kappa_ghz"] * 1e9
    detuning = c["detuning_over_kappa"] * kappa
    coop, ok = cooperativity_from_linewidths(gamma_on, gamma0, detuning, kappa)
    g = g_from_cooperativity(max(coop, 0.0), kappa, gamma0)
    fits = {
        "cooperativity_report": {
            "cooperativity": coop,
            "physical": ok,
            "g_ghz": g / 1e9,
            "gamma_on_mhz": c["gamma_on_mhz"],
            "gamma0_mhz": c["gamma0_mhz"],
            "kappa_ghz": c["kappa_ghz"],
            "detuning_over_kappa": c["detuning_over_kappa"],
        }
    }
    # broadening-vs-detuning curve for plotting
    deltas = np.linspace(0.0, 6.0 * kappa, 121)
    gam = np.array([purcell_broadened_linewidth(max(coop, 0.0), d, kappa, gamma0)
                    for d in deltas])
    return _csv(["x", "value"], [deltas, gam]), fits


_RUNNERS = {
    "ple_scan": _run_ple_scan,
    "pump_probe_scan": _run_pump_probe,
    "spin_pumping": _run_spin_pumping,
    "t1_recovery": _run_t1_recovery,
    "cpt_scan": _run_cpt_scan,
    "cavity_fit": _run_cavity_fit,
    "saturation_study": _run_saturation,
    "magnet_map": _run_magnet_map,
    "cooperativity_report": _run_cooperativity,
}


def run_protocol(cfg: ProtocolConfig, out_dir: str | None = None,
                 seed: int | None = None, verbose: bool = False) -> RunManifest:
    """Execute one protocol run; returns the manifest of written files.

    `out_dir` falls back to the config's output_dir when not given.
    """
    if seed is not None:
        cfg = ProtocolConfig(protocol=cfg.protocol, seed=int(seed),
                             blocks=cfg.blocks, output_dir=cfg.output_dir,
                             source_path=cfg.source_path)
    if out_dir is None:
        out_dir = cfg.output_dir
    run_hash = cfg.config_hash()
    run_dir = os.path.join(out_dir, f"{cfg.protocol}-{run_hash[:8]}")
    started = _dt.datetime.now(_dt.timezone.utc).isoformat()
    rng = np.random.default_rng(cfg.seed)
    created = not os.path.isdir(run_dir)
    os.makedirs(run_dir, exist_ok=True)
    try:
        try:
            data_text, fits_payload = _RUNNERS[cfg.protocol](cfg, rng)
        except SivCavError as exc:
            raise SivCavError(f"protocol '{cfg.protocol}': {exc}") from exc
        data_path = os.path.join(run_dir, "data.csv")
        fits_path = os.path.join(run_dir, "fits.json")
        _write_atomic(data_path, data_text)
        _write_atomic(fits_path, _json_text(fits_payload))
        finished = _dt.datetime.now(_dt.timezone.utc).isoformat()
        manifest = RunManifest(
            config_hash=run_hash,
            version=__version__,
            protocol=cfg.protocol,
            outputs=("data.csv", "fits.json"),
            started=started,
            finished=finished,
            out_dir=run_dir,
        )
        _write_atomic(os.path.join(run_dir, "manifest.json"),
                      _json_text(manifest.as_dict()))
        if verbose:
            print(f"wrote {run_dir}/{{data.csv,fits.json,manifest.json}}",
                  file=sys.stderr)
        return manifest
    except BaseException:
        if created:
            shutil.rmtree(run_dir, ignore_errors=True)
        raise

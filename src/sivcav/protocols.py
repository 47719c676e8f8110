"""Experiment protocols: wire the physics modules into reproducible runs.

Each protocol writes `data.csv`, `fits.json` and `manifest.json` into
`<out>/<protocol>-<hash8>/`. Data and fit files are deterministic for a fixed
(config, seed) pair, byte for byte; the manifest additionally carries wall
clock timestamps. All files are written atomically (temp file + rename) and
partial outputs are removed if a run fails.

The seed changes a run only where it draws noise: a `noise:` block for
`ple_scan`, `pump_probe_scan` and `cpt_scan`, or `noise_rel > 0` for
`cavity_fit` and `saturation_study`. Each such run draws once from a fresh
`np.random.default_rng(seed)`.
"""

from __future__ import annotations

import datetime as _dt
import math
import os
import shutil
import sys
import tempfile
from collections import namedtuple

import numpy as np

from . import __version__
from ._table import csv_text, json_text
from .config import ProtocolConfig
from .errors import DomainError, SivCavError

# Each runner and builder imports the physics it uses when it is called, so a
# run loads only its own protocol's modules (and `numpy.random` only where it
# draws noise).

__all__ = ["RunManifest", "run_protocol", "build_siv_model", "build_ple_emitter",
           "build_spin_pump_params", "build_cpt_params", "build_magnets"]


class RunManifest(namedtuple("RunManifest", "config_hash version protocol "
                                            "outputs started finished out_dir")):
    __slots__ = ()

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

def _build_manifold(d: dict):
    from .siv_levels import ManifoldParams

    return ManifoldParams(
        lambda_so=d["lambda_so_ghz"] * 1e9,
        strain_alpha=d["strain_alpha_ghz"] * 1e9,
        strain_beta=d["strain_beta_ghz"] * 1e9,
        quench_f=d["quench_f"],
        g_spin=d["g_spin"],
    )


def build_siv_model(d: dict):
    from .siv_levels import SivModel

    return SivModel(
        ground=_build_manifold(d["ground"]),
        excited=_build_manifold(d["excited"]),
        zpl_center=d["zpl_center_thz"] * 1e12,
        b_field=tuple(d["b_field_t"]),
        axis=tuple(d["axis"]),
    )


def build_ple_emitter(d: dict):
    from .dynamics import PleEmitter
    from .siv_levels import transition_table

    model = build_siv_model(d["model"])
    return PleEmitter(
        table=transition_table(model),
        linewidth=d["linewidth_mhz"] * 1e6,
        rabi=d["rabi_mhz"] * 1e6,
        temperature=d["temperature_k"],
    )


def build_spin_pump_params(d: dict):
    from .dynamics import SpinPumpParams

    # a t1_recovery block holds no pulse-train keys
    train = {} if "n_pulses" not in d else dict(
        n_pulses=d["n_pulses"], pulse_gap=d["pulse_gap_ns"] * 1e-9)
    return SpinPumpParams(
        rabi_freq=d["rabi_mhz"] * 1e6,
        optical_rate=d["optical_rate_mhz"] * 1e6,
        eta=d["eta"],
        t1=d["t1_ns"] * 1e-9,
        background=d["background"],
        pulse_length=d["pulse_length_ns"] * 1e-9,
        samples_per_pulse=d["samples_per_pulse"],
        **train,
    )


def build_cpt_params(d: dict):
    from .dynamics import CptParams

    fields = dict(
        rabi_pump=d["rabi_pump_mhz"] * 1e6,
        rabi_probe=d["rabi_probe_mhz"] * 1e6,
        optical_rate=d["optical_rate_mhz"] * 1e6,
        f_s=d["f_s_ghz"] * 1e9,
        detuning_split=d["detuning_split"],
    )
    if d["t2_star_ns"] is not None:
        return CptParams.from_t2_star(d["t2_star_ns"] * 1e-9, **fields)
    return CptParams(gamma_s=d["gamma_s_mhz"] * 1e6, **fields)


def build_magnets(items: list) -> list:
    from .magnetics import CuboidMagnet

    return [CuboidMagnet(center=tuple(1e-3 * np.array(m["center_mm"])),
                         dimensions=tuple(1e-3 * np.array(m["dimensions_mm"])),
                         magnetization=tuple(m["remanence_t"]))
            for m in items]


# ---------------------------------------------------------------------------
# deterministic output helpers
# ---------------------------------------------------------------------------

def _write_atomic(path: str, chunks):
    d = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _maybe_noise(y: np.ndarray, cfg: ProtocolConfig) -> np.ndarray:
    noise = cfg.blocks.get("noise")
    if not noise or noise["sigma_rel"] == 0.0:
        return y
    scale = float(np.max(np.abs(y)))
    with np.errstate(over="ignore"):
        y = y + np.random.default_rng(cfg.seed).normal(
            0.0, noise["sigma_rel"] * scale, size=y.shape)
    if not np.all(np.isfinite(y)):
        raise DomainError(f"noise.sigma_rel {noise['sigma_rel']:g} scales the "
                          "noisy data beyond float64")
    return y


# ---------------------------------------------------------------------------
# protocol implementations: each returns a `_Table` of its data.csv headers,
# columns and %-formats (None: every column "%.12e") and fits.json payload
# ---------------------------------------------------------------------------

_Table = namedtuple("_Table", "headers columns fits formats", defaults=(None,))


def _linspace(start: float, stop: float, points: int, what: str,
              unit: str = "Hz") -> np.ndarray:
    """`np.linspace` over config ends in `unit`; DomainError when float64
    cannot carry the ends or the span, or cannot tell the points apart."""
    if not math.isfinite(stop - start):
        raise DomainError(f"{what} runs from {start:.6g} to {stop:.6g} {unit}: "
                          "its ends or span overflow float64")
    x = np.linspace(start, stop, points)
    if not np.all(np.diff(x) > 0.0):
        raise DomainError(f"{what} steps {(stop - start) / (points - 1):.3g} "
                          f"{unit} between its {points} points, below what "
                          f"float64 resolves at {max(abs(start), abs(stop)):.6g} "
                          f"{unit}")
    return x


def _run_ple_scan(cfg):
    from .dynamics import simulate_ple_scan

    emitters = [build_ple_emitter(e) for e in cfg.blocks["emitters"]]
    scan = cfg.blocks["scan"]
    freqs = _linspace(scan["start_thz"] * 1e12, scan["stop_thz"] * 1e12,
                      scan["points"], "the scan (scan.start_thz to scan.stop_thz)")
    spec = simulate_ple_scan(emitters, freqs)
    y = _maybe_noise(spec.y, cfg)
    return _Table(["x", "value"], [spec.x, y], {})


def _run_pump_probe(cfg):
    from .dynamics import simulate_ple_scan, simulate_pump_probe_scan

    emitter = build_ple_emitter(cfg.blocks["emitter"])
    pump_cfg = cfg.blocks["pump"]
    target = [t for t in emitter.table.lines_of(pump_cfg["parent"])
              if t.label == pump_cfg["line"]]
    pump_freq = target[0].frequency + pump_cfg["detuning_mhz"] * 1e6
    parent_freq = [o.frequency for o in emitter.table.optical
                   if o.label == pump_cfg["parent"]][0]
    scan = cfg.blocks["scan"]
    freqs = _linspace(parent_freq + scan["start_offset_ghz"] * 1e9,
                      parent_freq + scan["stop_offset_ghz"] * 1e9,
                      scan["points"],
                      "the scan (scan.start_offset_ghz to scan.stop_offset_ghz)")
    t1_ns = cfg.blocks["t1_ns"]
    t1 = t1_ns * 1e-9 if t1_ns else None
    if t1 == 0.0:
        raise DomainError(f"t1_ns {t1_ns:g} is 0 s in float64: the spin-flip "
                          "rate 1/(4 pi t1) is not finite")
    with_pump = simulate_pump_probe_scan(emitter, freqs, pump_freq,
                                         pump_cfg["rabi_mhz"] * 1e6, t1=t1)
    without = simulate_ple_scan([emitter], freqs)
    y_pump = _maybe_noise(with_pump.y, cfg)
    table = emitter.table
    fits = {"pump_frequency_hz": pump_freq,
            "spin_splitting_ghz": {"f_s_ground": float(table.f_s_ground) / 1e9,
                                   "f_s_excited": float(table.f_s_excited) / 1e9,
                                   "degenerate": not table.spin_resolved}}
    return _Table(["x", "value", "value_no_pump"], [freqs, y_pump, without.y], fits)


def _run_spin_pumping(cfg):
    from .dynamics import simulate_spin_pumping
    from .dynamics.experiments import _fit_initialization

    params = build_spin_pump_params(cfg.blocks["spin_pump"])
    traces = simulate_spin_pumping(params)
    times = np.concatenate([t.times for t in traces])
    signal = np.concatenate([t.signal for t in traces])
    pops = np.vstack([t.populations for t in traces])
    fit, fidelity = _fit_initialization(traces[0])
    fits = {
        "initialization": {
            "timescale_ns": fit["timescale"] * 1e9,
            "timescale_sigma_ns": fit.sigma_of("timescale") * 1e9,
            "fidelity": fidelity,
            "converged": fit.converged,
        }
    }
    headers = ["x", "value"] + [f"pop_{lb}" for lb in traces[0].labels]
    cols = [times, signal] + [pops[:, i] for i in range(pops.shape[1])]
    return _Table(headers, cols, fits)


def _run_t1_recovery(cfg):
    from .dynamics import simulate_t1_recovery
    from .fitting import EXP_RECOVERY, lm_fit

    params = build_spin_pump_params(cfg.blocks["spin_pump"])
    taus_cfg = cfg.blocks["taus"]
    taus = _linspace(taus_cfg["start_ns"] * 1e-9, taus_cfg["stop_ns"] * 1e-9,
                     taus_cfg["points"],
                     "the delays (taus.start_ns to taus.stop_ns)", "s")
    spec = simulate_t1_recovery(params, taus)
    fit = lm_fit(EXP_RECOVERY, spec)
    fits = {
        "t1_recovery": {
            "t1_ns": fit["timescale"] * 1e9,
            "t1_sigma_ns": fit.sigma_of("timescale") * 1e9,
            "configured_t1_ns": params.t1 * 1e9,
            "converged": fit.converged,
        }
    }
    return _Table(["x", "value"], [spec.x, spec.y], fits)


def _run_cpt_scan(cfg):
    from .dynamics import simulate_cpt_scan
    from .fitting import CPT_DIP, Spectrum, lm_fit

    params = build_cpt_params(cfg.blocks["cpt"])
    scan = cfg.blocks["scan"]
    half = 0.5 * scan["span_mhz"] * 1e6
    detunings = _linspace(-half, half, scan["points"], "the scan (scan.span_mhz)")
    spec = simulate_cpt_scan(params, detunings)
    y = _maybe_noise(spec.y, cfg)
    result = lm_fit(CPT_DIP, Spectrum(detunings, y))
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
    return _Table(["x", "value"], [detunings, y], fits)


def _run_cavity_fit(cfg):
    from .cqed import q_factor
    from .fitting import LORENTZIAN, Spectrum, lm_fit

    s = cfg.blocks["synthetic"]
    center = s["resonance_thz"] * 1e12
    kappa = s["kappa_ghz"] * 1e9
    half_span = 0.5 * s["span_ghz"] * 1e9
    # the line shape squares its half width and each point's distance to the
    # center, which reaches half the span; the fit's Jacobian multiplies a
    # half width (up to half the span in the guess, half of kappa in the
    # data) by squared distances to a center in the scan, up to the span
    if not 0.0 < (0.5 * kappa) * (0.5 * kappa) < math.inf:
        raise DomainError(f"half of synthetic.kappa_ghz is {0.5 * kappa:.3g} Hz, "
                          "whose square float64 cannot carry")
    if not half_span * half_span < math.inf:
        raise DomainError(f"half of synthetic.span_ghz is {half_span:.3g} Hz, "
                          "whose square overflows float64")
    if not max(half_span, 0.5 * kappa) * (2.0 * half_span) ** 2 < math.inf:
        raise DomainError(f"synthetic.span_ghz is {2.0 * half_span:.3g} Hz, too "
                          "wide for float64 to carry the Lorentzian fit's Jacobian")
    nu = _linspace(center - half_span, center + half_span, s["points"],
                   "the synthetic scan (synthetic.span_ghz about "
                   "synthetic.resonance_thz)")
    y = LORENTZIAN.func(nu, (center, kappa, s["amplitude"], s["offset"]))
    if s["noise_rel"] > 0:
        y = y + np.random.default_rng(cfg.seed).normal(
            0.0, s["noise_rel"] * s["amplitude"], size=y.shape)
    fit = lm_fit(LORENTZIAN, Spectrum(nu, y))
    fits = {
        "cavity": {
            "kappa_ghz": fit["fwhm"] / 1e9,
            "kappa_sigma_ghz": fit.sigma_of("fwhm") / 1e9,
            "center_thz": fit["center"] / 1e12,
            "q_factor": q_factor(fit["center"], fit["fwhm"]),
            "converged": fit.converged,
        }
    }
    return _Table(["x", "value"], [nu, y], fits)


def _run_saturation(cfg):
    from .fitting import SATURATION, Spectrum, lm_fit

    s = cfg.blocks["synthetic"]
    if not math.isfinite(s["power_max"] / s["p_sat"]):
        raise DomainError(f"synthetic.p_sat {s['p_sat']:g} puts power_max / p_sat "
                          "beyond float64")
    powers = np.linspace(s["power_max"] / s["points"], s["power_max"], s["points"])
    y = SATURATION.func(powers, (s["gamma0_mhz"] * 1e6, s["p_sat"]))
    if s["noise_rel"] > 0:
        with np.errstate(over="ignore"):
            y = y * (1.0 + np.random.default_rng(cfg.seed).normal(
                0.0, s["noise_rel"], size=y.shape))
        if not np.all(np.isfinite(y)):
            raise DomainError(f"synthetic.noise_rel {s['noise_rel']:g} scales the "
                              "noisy data beyond float64")
    fit = lm_fit(SATURATION, Spectrum(powers, y))
    fits = {
        "saturation": {
            "gamma0_mhz": fit["gamma0"] / 1e6,
            "gamma0_sigma_mhz": fit.sigma_of("gamma0") / 1e6,
            "p_sat": fit["p_sat"],
            "true_gamma0_mhz": s["gamma0_mhz"],
            "converged": fit.converged,
        }
    }
    return _Table(["x", "value"], [powers, y], fits)


def _run_magnet_map(cfg):
    from .magnetics import _finite_norm, assembly_field, field_angle, field_map_grid

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
            "magnitude_t": _finite_norm(b_pcc, "field magnitude at the pcc point"),
            "angle_from_x_deg": field_angle(b_pcc, (1.0, 0.0, 0.0)),
        }
    }
    return _Table(["x_m", "y_m", "z_m", "bx_t", "by_t", "bz_t", "masked"],
                  [*points.T, *b.T, masked], fits, ["%.9e"] * 6 + ["%d"])


def _run_cooperativity(cfg):
    from .cqed import BAD_CAVITY_RTOL, cooperativity_from_linewidths, \
        g_from_cooperativity, purcell_broadened_linewidth, single_excitation_linewidth

    c = cfg.blocks["cooperativity"]
    gamma_on = c["gamma_on_mhz"] * 1e6
    gamma0 = c["gamma0_mhz"] * 1e6
    kappa = c["kappa_ghz"] * 1e9
    detuning = c["detuning_over_kappa"] * kappa
    coop, ok = cooperativity_from_linewidths(gamma_on, gamma0, detuning, kappa)
    c_model = max(coop, 0.0)
    g = g_from_cooperativity(c_model, kappa, gamma0)
    closed = purcell_broadened_linewidth(c_model, detuning, kappa, gamma0)
    exact = single_excitation_linewidth(g, detuning, kappa, gamma0)
    if not abs(closed - exact) <= BAD_CAVITY_RTOL * exact:
        raise DomainError(
            f"outside the bad-cavity regime: at C = {coop:.3g} the closed-form "
            f"linewidth {closed / 1e6:.4g} MHz misses the exact {exact / 1e6:.4g} "
            f"MHz by more than {BAD_CAVITY_RTOL:g} relative")
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
    gam = purcell_broadened_linewidth(c_model, deltas, kappa, gamma0)
    return _Table(["x", "value"], [deltas, gam], fits)


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
        cfg = cfg._replace(seed=int(seed))
    if out_dir is None:
        out_dir = cfg.output_dir
    run_hash = cfg.config_hash()
    run_dir = os.path.join(out_dir, f"{cfg.protocol}-{run_hash[:8]}")
    started = _dt.datetime.now(_dt.timezone.utc).isoformat()
    created = not os.path.isdir(run_dir)
    os.makedirs(run_dir, exist_ok=True)
    try:
        try:
            table = _RUNNERS[cfg.protocol](cfg)
        except SivCavError as exc:
            raise SivCavError(f"protocol '{cfg.protocol}': {exc}") from exc
        formats = table.formats or ["%.12e"] * len(table.columns)
        _write_atomic(os.path.join(run_dir, "data.csv"),
                      csv_text(table.headers, table.columns, formats))
        _write_atomic(os.path.join(run_dir, "fits.json"),
                      [json_text(table.fits), "\n"])
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
                      [json_text(manifest.as_dict()), "\n"])
        if verbose:
            print(f"wrote {run_dir}/{{data.csv,fits.json,manifest.json}}",
                  file=sys.stderr)
        return manifest
    except BaseException:
        if created:
            shutil.rmtree(run_dir, ignore_errors=True)
        raise

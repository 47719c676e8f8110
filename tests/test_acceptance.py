"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every tolerance is fixed here; nothing is calibrated at test time.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from sivcav.config import load_config
from sivcav.constants import TWO_PI
from sivcav.cqed import (
    cooperativity_from_linewidths,
    g_from_cooperativity,
    purcell_broadened_linewidth,
    q_factor,
)
from sivcav.dynamics import (
    CptParams,
    simulate_cpt_scan,
    simulate_spin_pumping,
    simulate_t1_recovery,
)
from sivcav.dynamics.engine import _liouvillian
from sivcav.dynamics.experiments import _fit_initialization
from sivcav.fitting import (
    CPT_DIP,
    EXP_DECAY,
    EXP_RECOVERY,
    LORENTZIAN,
    MODELS,
    SATURATION,
    Spectrum,
    lm_fit,
)
from sivcav.magnetics import assembly_field
from sivcav.protocols import build_magnets, build_siv_model, run_protocol
from sivcav.siv_levels import transition_table

from test_dynamics_engine import (
    diagonal_state,
    populations,
    random_density,
    random_system,
    rate_equation_populations,
)
from test_fitting import MODEL_POINTS, fd_jacobian
from test_magnetics import (
    MAGNET,
    dipole_field,
    random_exterior_point,
    surface_integral_field,
)
from test_protocols_cli import MALFORMED

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"

KAPPA = 273e9
GAMMA0 = 157e6
GAMMA_ON = 203e6


def report(n, detail):
    print(f"[acceptance] criterion {n:2d}: PASS  ({detail})")


def test_criterion_01_cooperativity_chain():
    t0 = time.perf_counter()
    c, ok = cooperativity_from_linewidths(GAMMA_ON, GAMMA0, 0.042 * KAPPA, KAPPA)
    g = g_from_cooperativity(c, KAPPA, GAMMA0)
    elapsed = time.perf_counter() - t0
    assert ok
    assert 0.28 <= c <= 0.31
    assert 1.75e9 <= g <= 1.85e9
    assert elapsed < 1.0
    report(1, f"C={c:.4f}, g={g / 1e9:.3f} GHz, {elapsed * 1e3:.1f} ms")


def test_criterion_02_detuned_broadening():
    gamma_on = purcell_broadened_linewidth(0.30, 5 * KAPPA, KAPPA, GAMMA0)
    excess = (gamma_on - GAMMA0) / GAMMA0
    assert excess < 0.005
    report(2, f"broadening at 5 kappa: {excess * 100:.3f}% < 0.5%")


def test_criterion_03_saturation_closure():
    t0 = time.perf_counter()
    cfg = load_config(str(CONFIGS / "fig3_saturation.cfg"))
    s = cfg.blocks["synthetic"]
    assert s["points"] == 8 and s["noise_rel"] == 0.03
    rng = np.random.default_rng(cfg.seed)
    powers = np.linspace(s["power_max"] / s["points"], s["power_max"], s["points"])
    gamma0 = s["gamma0_mhz"] * 1e6
    y = gamma0 * np.sqrt(1 + powers / s["p_sat"]) \
        * (1 + rng.normal(0, s["noise_rel"], s["points"]))
    fit = lm_fit(SATURATION, Spectrum(powers, y))
    elapsed = time.perf_counter() - t0
    rel = abs(fit["gamma0"] - gamma0) / gamma0
    assert rel < 0.05
    assert elapsed < 1.0
    report(3, f"gamma0 recovered within {rel * 100:.2f}%, {elapsed * 1e3:.0f} ms")


def test_criterion_04_zeeman_consistency():
    t0 = time.perf_counter()
    map_cfg = load_config(str(CONFIGS / "fig2_magnet_map.cfg"))
    magnets = build_magnets(map_cfg.blocks["magnets"])
    pcc = 1e-3 * np.array(map_cfg.blocks["pcc_mm"])
    b = assembly_field(magnets, pcc)
    b_mag = float(np.linalg.norm(b))
    assert b_mag > 0.25
    assert 0.24 <= b_mag <= 0.26
    assert abs(b[0]) == max(np.abs(b))  # field along x

    emitter_cfg = load_config(str(CONFIGS / "fig2_pump_probe.cfg"))
    model_dict = dict(emitter_cfg.blocks["emitter"]["model"])
    model_dict["b_field_t"] = [float(v) for v in b]  # field from the assembly
    model = build_siv_model(model_dict)
    fs = transition_table(model).f_s_ground
    elapsed = time.perf_counter() - t0
    assert abs(fs - 6.8e9) <= 0.5e9
    assert elapsed < 5.0
    report(4, f"|B|={b_mag * 1e3:.1f} mT, f_s={fs / 1e9:.2f} GHz, "
              f"{elapsed * 1e3:.0f} ms")


def test_criterion_05_spin_pumping_calibration():
    t0 = time.perf_counter()
    cfg = load_config(str(CONFIGS / "fig4_spin_pumping.cfg"))
    from sivcav.protocols import build_spin_pump_params
    params = build_spin_pump_params(cfg.blocks["spin_pump"])

    trace = simulate_spin_pumping(params)[0]
    i_pk = int(np.argmax(trace.signal))
    fit = lm_fit(EXP_DECAY, Spectrum(trace.times[i_pk:] - trace.times[i_pk],
                                       trace.signal[i_pk:]))
    tau = fit["timescale"]
    fidelity = _fit_initialization(trace)[1]
    assert abs(tau - 70e-9) <= 0.2 * 70e-9
    assert abs(fidelity - 0.75) <= 0.05

    taus = np.linspace(20e-9, 4e-6, 25)
    rec = simulate_t1_recovery(params, taus)
    t1_fit = lm_fit(EXP_RECOVERY, rec)
    assert abs(t1_fit["timescale"] - 630e-9) <= 0.02 * 630e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, f"tau={tau * 1e9:.1f} ns, F={fidelity:.3f}, "
              f"T1={t1_fit['timescale'] * 1e9:.1f} ns, {elapsed:.1f} s")


def test_criterion_06_cpt():
    t0 = time.perf_counter()
    t2_star = 97e-9
    gamma_s = 1.0 / (TWO_PI * t2_star)  # dark line 1/(pi T2*) = 3.28 MHz
    det = np.linspace(-5e6, 5e6, 121)
    widths = []
    for om in (12e6, 6e6, 3e6):
        p = CptParams(rabi_pump=om, rabi_probe=om, optical_rate=157e6,
                      gamma_s=gamma_s)
        res = lm_fit(CPT_DIP, simulate_cpt_scan(p, det))
        assert res.converged
        widths.append(res["dip_fwhm"])
    assert widths[0] > widths[1] > widths[2]  # power broadening
    assert abs(widths[-1] - 3.3e6) <= 0.10 * 3.3e6

    p0 = CptParams(rabi_pump=5e6, rabi_probe=5e6, optical_rate=157e6,
                   gamma_s=0.0)
    spec = simulate_cpt_scan(p0, np.array([-20e6, 0.0, 20e6]))
    assert spec.y[1] <= 1e-6 * spec.y[0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, f"widths {[round(w / 1e6, 3) for w in widths]} MHz -> 3.3 MHz, "
              f"dark-state ratio {spec.y[1] / spec.y[0]:.1e}, {elapsed:.1f} s")


def test_criterion_07_lindblad_engine_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_trace = worst_herm = worst_pos = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        sys = random_system(rng, n)
        rho0 = random_density(rng, n)
        lv = _liouvillian(sys)
        for t in (5e-9, 40e-9):
            rho = (expm(lv * t) @ rho0.reshape(-1)).reshape(n, n)
            worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
            worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
            herm = 0.5 * (rho + rho.conj().T)
            worst_pos = min(worst_pos, float(np.min(np.linalg.eigvalsh(herm))))
    assert worst_trace < 1e-8
    assert worst_herm < 1e-10
    assert worst_pos > -1e-9

    # integrator vs matrix-exponential oracle
    worst_dev = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        sys = random_system(rng, n)
        rho0 = random_density(rng, n)
        ts = np.linspace(0.0, 30e-9, 4)
        pops = populations(sys, rho0, ts)
        lv = _liouvillian(sys)
        for k, t in enumerate(ts):
            ref = (expm(lv * t) @ rho0.reshape(-1)).reshape(n, n)
            worst_dev = max(worst_dev, float(np.max(
                np.abs(pops[k] - np.real(np.diag(ref))))))
    assert worst_dev < 1e-6

    # weak-drive rate-equation agreement
    from sivcav.dynamics import Decay, Drive, Level, LevelSystem
    gamma = 100e6
    sys = LevelSystem(
        (Level("g1", 0.0), Level("g2", 6.8e9), Level("e", 4.068e14)),
        drives=(Drive("g1", "e", 0.01 * gamma, 0.0),),
        decays=(Decay("e", "g1", 0.6 * gamma), Decay("e", "g2", 0.4 * gamma)))
    p0 = np.array([1.0, 0.0, 0.0])
    pump = (TWO_PI * 0.01 * gamma) ** 2 / (TWO_PI * gamma)
    ts = np.linspace(0, 3.0 / pump, 7)
    pops = populations(sys, diagonal_state(p0), ts)
    ref = rate_equation_populations(sys, p0, ts)
    rate_dev = float(np.max(np.abs(pops - ref)))
    assert rate_dev < 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(7, f"trace {worst_trace:.1e}, herm {worst_herm:.1e}, "
              f"pos {worst_pos:.1e}, expm {worst_dev:.1e}, "
              f"rate-eq {rate_dev:.1e}, {elapsed:.1f} s")


def test_criterion_08_magnetostatics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    from sivcav.magnetics import cuboid_field

    worst = 0.0
    for _ in range(50):
        pt = random_exterior_point(rng, MAGNET)
        analytic = cuboid_field(MAGNET, pt)
        oracle = surface_integral_field(MAGNET, pt, n=80)
        worst = max(worst, float(np.linalg.norm(analytic - oracle)
                                 / np.linalg.norm(oracle)))
    assert worst < 1e-6

    worst_dip = 0.0
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        pt = np.array(MAGNET.center) + 20 * max(MAGNET.dimensions) * u
        analytic = cuboid_field(MAGNET, pt)
        dip = dipole_field(MAGNET, pt)
        worst_dip = max(worst_dip, float(np.linalg.norm(analytic - dip)
                                         / np.linalg.norm(dip)))
    assert worst_dip < 0.01

    h = 1e-6
    pt = np.array(MAGNET.center) + [0.012, 0.004, 0.006]
    grads = np.zeros((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        grads[:, i] = (cuboid_field(MAGNET, pt + e)
                       - cuboid_field(MAGNET, pt - e)) / (2 * h)
    bmag = np.linalg.norm(cuboid_field(MAGNET, pt))
    div = abs(np.trace(grads))
    curl = np.linalg.norm([grads[2, 1] - grads[1, 2],
                           grads[0, 2] - grads[2, 0],
                           grads[1, 0] - grads[0, 1]])
    assert div < 1e-6 * bmag / h
    assert curl < 1e-6 * bmag / h
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(8, f"oracle {worst:.1e}, dipole {worst_dip * 100:.2f}%, "
              f"div/curl ok, {elapsed:.1f} s")


def test_criterion_09_fit_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for name, model in MODELS.items():
        x, p0 = MODEL_POINTS[name]
        rng = np.random.default_rng(abs(hash(name)) % 2 ** 32)
        for _ in range(5):
            p = np.array(p0) * rng.uniform(0.5, 1.5, len(p0))
            analytic = model.jac(x, p)
            numeric = fd_jacobian(model, x, p)
            scale = np.max(np.abs(analytic)) + 1e-12
            worst = max(worst, float(np.max(np.abs(analytic - numeric)) / scale))
    assert worst < 1e-6

    nu0 = 406.8e12
    fwhm = nu0 / 1000.0
    nu = np.linspace(nu0 - 4 * fwhm, nu0 + 4 * fwhm, 301)
    fit = lm_fit(LORENTZIAN, Spectrum(nu, LORENTZIAN.func(nu, (nu0, fwhm, 1.0, 0.02))))
    q = q_factor(fit["center"], fit["fwhm"])
    assert abs(q - 1000.0) <= 10.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(9, f"jacobians {worst:.1e}, Q={q:.1f}, {elapsed:.1f} s")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    from sivcav.errors import ConfigError

    for path in sorted(CONFIGS.glob("*.cfg")):
        cfg = load_config(str(path))
        m1 = run_protocol(cfg, out_dir=str(tmp_path / "a"))
        m2 = run_protocol(cfg, out_dir=str(tmp_path / "b"))
        for name in ("data.csv", "fits.json"):
            b1 = (Path(m1.out_dir) / name).read_bytes()
            b2 = (Path(m2.out_dir) / name).read_bytes()
            assert b1 == b2, f"{path.name}:{name} not byte-identical"

    caught = 0
    for name, needle in MALFORMED:
        try:
            load_config(str(CONFIGS / "malformed" / name))
        except ConfigError as exc:
            assert needle in str(exc), f"{name}: wrong field in {exc}"
            caught += 1
    assert caught == 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(10, f"{len(list(CONFIGS.glob('*.cfg')))} configs byte-identical, "
               f"10 malformed caught, {elapsed:.1f} s")

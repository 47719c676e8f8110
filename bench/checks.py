"""Output checks run after the timed phase; each returns a list of failures.

The in-process workloads recompute a seed-chosen sample of rows with
oracles that are independent of the program's solvers:

* steady-state points: a dense Kronecker Liouvillian built from
  `LevelSystem.hamiltonian()` / `collapse_operators()`, solved by SVD null
  space;
* pulse and dark intervals: `scipy.linalg.expm`;
* field points: Gauss-Legendre quadrature of the magnetic surface charge.

The reduced level systems are rebuilt here from the configs, so a change to
the physics in `sivcav.dynamics.experiments` shows as a failed check.
Tolerances sit far above the oracles' round-off (< 1e-10 relative) and far
below any physics change, so exact reformulations pass and model changes fail.

The `cli-shipped` checks reuse the acceptance-suite criteria and the golden
files under `tests/golden/` (read only).
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

import numpy as np

import gen

#: rows recomputed per op
SAMPLE_ROWS = 6
#: steady-state points: |program - oracle| <= STEADY_RTOL * max|column|
STEADY_RTOL = 1e-8
#: propagated points: |program - oracle| <= PROPAGATE_RTOL * max|column|
#: (populations: absolute). The DOP853 dense output that samples the pulse
#: grid deviates from expm by up to 1.4e-4 of the peak signal; T1 points
#: agree within 1e-9.
PROPAGATE_RTOL = 1e-3
#: field points: |B - B_oracle| <= FIELD_RTOL * |B_oracle|
FIELD_RTOL = 1e-6
#: field points closer than this to a magnet are not sampled (m): the
#: quadrature oracle loses accuracy next to a charged face
FIELD_MIN_GAP = 2e-3
#: Gauss-Legendre nodes per face axis
GL_NODES = 80

OPTICAL_OFFSET = 4.068e14  # Hz, excited-level energy used by the program


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in r] for r in rows[1:]], dtype=float)
    return header, data


def output_stats(run_dirs):
    """(data.csv + fits.json bytes, magnet-map grid rows, masked rows)."""
    out_bytes = grid_rows = masked_rows = 0
    for run_dir in run_dirs:
        for name in ("data.csv", "fits.json"):
            out_bytes += os.path.getsize(os.path.join(run_dir, name))
        if os.path.basename(run_dir).startswith("magnet_map-"):
            _h, data = read_csv(os.path.join(run_dir, "data.csv"))
            grid_rows += len(data)
            masked_rows += int((data[:, 6] == 1.0).sum())
    return out_bytes, grid_rows, masked_rows


def _sample(rng: random.Random, candidates, k=SAMPLE_ROWS):
    candidates = list(candidates)
    return sorted(rng.sample(candidates, min(k, len(candidates))))


def _close(got, ref, tol, what):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(ref))))
    if not err <= tol:
        return [f"{what}: |program - oracle| = {err:.3e} > {tol:.3e}"]
    return []


# ---------------------------------------------------------------------------
# Lindblad oracles
# ---------------------------------------------------------------------------

def dense_liouvillian(system) -> np.ndarray:
    """Row-major Kronecker superoperator of a sivcav LevelSystem."""
    h = system.hamiltonian()
    n = h.shape[0]
    eye = np.eye(n, dtype=complex)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in system.collapse_operators():
        cdc = c.conj().T @ c
        lv += np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye)
                                             + np.kron(eye, cdc.T))
    return lv


def null_space_signal(system) -> float:
    """Radiative flux of the SVD null-space steady state."""
    n = system.dim
    _u, _s, vh = np.linalg.svd(dense_liouvillian(system))
    rho = vh[-1].conj().reshape(n, n)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    return float(np.real(np.diag(rho)) @ system.radiative_rates())


def _cpt_system(engine, p, delta):
    if p.detuning_split == "symmetric":
        d_pump, d_probe = 0.5 * delta, -0.5 * delta
    else:
        d_pump, d_probe = 0.0, -delta
    levels = (engine.Level("g1", 0.0), engine.Level("g2", p.f_s),
              engine.Level("e", OPTICAL_OFFSET))
    drives = (engine.Drive("g1", "e", p.rabi_pump, d_pump),
              engine.Drive("g2", "e", p.rabi_probe, d_probe))
    decays = (engine.Decay("e", "g1", 0.5 * p.optical_rate),
              engine.Decay("e", "g2", 0.5 * p.optical_rate))
    dephasings = ((engine.Dephasing("g1", "g2", p.gamma_s),)
                  if p.gamma_s > 0 else ())
    return engine.LevelSystem(levels, drives, decays, dephasings)


def check_cpt(cfg, run_dir, rng):
    from sivcav.dynamics import engine
    from sivcav.protocols import build_cpt_params

    p = build_cpt_params(cfg.blocks["cpt"])
    scan = cfg.blocks["scan"]
    half = 0.5 * scan["span_mhz"] * 1e6
    detunings = np.linspace(-half, half, scan["points"])
    _h, data = read_csv(os.path.join(run_dir, "data.csv"))
    if data.shape != (len(detunings), 2):
        return [f"cpt data.csv has shape {data.shape}"]
    scale = float(np.max(np.abs(data[:, 1])))
    fails = []
    for i in _sample(rng, range(len(detunings))):
        ref = null_space_signal(_cpt_system(engine, p, float(detunings[i])))
        fails += _close(data[i, 1], ref, STEADY_RTOL * scale, f"cpt row {i}")
    return fails


def _pump_probe_system(engine, emitter, nu, pump_freq, pump_rabi, t1):
    """Reduced two-laser system at probe frequency `nu`, or None if dark."""
    grounds = sorted({t.ground_energy for t in emitter.table.sublevel})[:2]
    candidates = [t for t in emitter.table.sublevel if t.ground_energy in grounds]
    cutoff = 50.0 * emitter.linewidth

    def nearest(freq):
        best = min(candidates, key=lambda t: abs(t.frequency - freq))
        return best if abs(best.frequency - freq) <= cutoff else None

    t_pump, t_probe = nearest(pump_freq), nearest(nu)
    chosen = []
    if t_pump is not None:
        chosen.append((t_pump, pump_rabi, pump_freq - t_pump.frequency))
    if t_probe is not None and not (
            t_pump is not None
            and (t_probe.ground_energy, t_probe.excited_energy)
            == (t_pump.ground_energy, t_pump.excited_energy)):
        chosen.append((t_probe, emitter.rabi, nu - t_probe.frequency))
    if not chosen:
        return None
    g_label = {grounds[0]: "g1", grounds[1]: "g2"}
    excited = sorted({t.excited_energy for t, _r, _d in chosen})
    e_label = {e: f"e{k}" for k, e in enumerate(excited)}
    levels = [engine.Level("g1", grounds[0]), engine.Level("g2", grounds[1])]
    levels += [engine.Level(e_label[e], OPTICAL_OFFSET + e) for e in excited]
    drives = [engine.Drive(g_label[t.ground_energy], e_label[t.excited_energy],
                           rabi * math.sqrt(t.dipole_weight), det)
              for t, rabi, det in chosen]
    decays = []
    for e in excited:
        weights = {t.ground_energy: t.dipole_weight for t in candidates
                   if t.excited_energy == e}
        total = sum(weights.values())
        decays += [engine.Decay(e_label[e], g_label[g],
                                emitter.linewidth * w / total)
                   for g, w in weights.items()]
    if t1 is not None:
        r = 1.0 / (4.0 * math.pi * t1)
        decays += [engine.Decay("g1", "g2", r, radiative=False),
                   engine.Decay("g2", "g1", r, radiative=False)]
    return engine.LevelSystem(tuple(levels), tuple(drives), tuple(decays))


def check_pump_probe(cfg, run_dir, rng):
    from sivcav.dynamics import engine
    from sivcav.protocols import build_ple_emitter

    emitter = build_ple_emitter(cfg.blocks["emitter"])
    pump = cfg.blocks["pump"]
    line = [t for t in emitter.table.sublevel
            if t.parent == pump["parent"] and t.label == pump["line"]][0]
    pump_freq = line.frequency + pump["detuning_mhz"] * 1e6
    parent = [o.frequency for o in emitter.table.optical
              if o.label == pump["parent"]][0]
    scan = cfg.blocks["scan"]
    freqs = np.linspace(parent + scan["start_offset_ghz"] * 1e9,
                        parent + scan["stop_offset_ghz"] * 1e9, scan["points"])
    t1 = cfg.blocks["t1_ns"] * 1e-9 if cfg.blocks["t1_ns"] else None
    _h, data = read_csv(os.path.join(run_dir, "data.csv"))
    if data.shape != (len(freqs), 3):
        return [f"pump-probe data.csv has shape {data.shape}"]
    scale = float(np.max(np.abs(data[:, 1])))
    fails = []
    for i in _sample(rng, range(len(freqs))):
        system = _pump_probe_system(engine, emitter, float(freqs[i]), pump_freq,
                                    pump["rabi_mhz"] * 1e6, t1)
        ref = 0.0 if system is None else null_space_signal(system)
        fails += _close(data[i, 1], ref, STEADY_RTOL * scale,
                        f"pump-probe row {i}")
    return fails


def _spin_pump_systems(engine, p):
    levels = (engine.Level("g_dn", 0.0), engine.Level("g_up", p.f_s_ground),
              engine.Level("e_dn", OPTICAL_OFFSET),
              engine.Level("e_up", OPTICAL_OFFSET + p.f_s_excited))
    gam, r_t1 = p.optical_rate, 1.0 / (4.0 * math.pi * p.t1)
    decays = (engine.Decay("e_dn", "g_dn", (1.0 - p.eta) * gam),
              engine.Decay("e_dn", "g_up", p.eta * gam),
              engine.Decay("e_up", "g_up", (1.0 - p.eta) * gam),
              engine.Decay("e_up", "g_dn", p.eta * gam),
              engine.Decay("g_dn", "g_up", r_t1, radiative=False),
              engine.Decay("g_up", "g_dn", r_t1, radiative=False))
    on = engine.LevelSystem(levels, (engine.Drive("g_dn", "e_dn", p.rabi_freq, 0.0),),
                            decays)
    off = engine.LevelSystem(levels, (), decays)
    return on, off


class _Propagator:
    """expm oracle for one time-independent Liouvillian."""

    def __init__(self, system):
        from scipy.linalg import expm
        self._expm = expm
        self.lv = dense_liouvillian(system)
        self.rates = system.radiative_rates()
        self.n = system.dim

    def __call__(self, rho, t):
        vec = self._expm(self.lv * t) @ rho.reshape(-1)
        return vec.reshape(self.n, self.n)

    def pulse(self, rho, grid):
        """States on an evenly spaced grid starting at 0."""
        step = self._expm(self.lv * (grid[1] - grid[0]))
        out, vec = [], rho.reshape(-1)
        for _ in grid:
            out.append(vec.reshape(self.n, self.n))
            vec = step @ vec
        return out

    def populations(self, rho):
        return np.real(np.diag(rho))


def _normalized(rho):
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def check_t1(cfg, run_dir, rng):
    from sivcav.dynamics import engine
    from sivcav.protocols import build_spin_pump_params

    p = build_spin_pump_params(cfg.blocks["spin_pump"])
    on, off = (_Propagator(s) for s in _spin_pump_systems(engine, p))
    taus_cfg = cfg.blocks["taus"]
    taus = np.linspace(taus_cfg["start_ns"] * 1e-9, taus_cfg["stop_ns"] * 1e-9,
                       taus_cfg["points"])
    grid = np.linspace(0.0, p.pulse_length, p.samples_per_pulse)
    first = on.pulse(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), grid)
    signal = [on.populations(r) @ on.rates for r in first]
    i_star = int(np.argmax(signal))
    t_star = max(float(grid[i_star]), float(grid[1]))
    rho_end = _normalized(first[-1])
    _h, data = read_csv(os.path.join(run_dir, "data.csv"))
    if data.shape != (len(taus), 2):
        return [f"t1 data.csv has shape {data.shape}"]
    scale = float(np.max(np.abs(data[:, 1])))
    fails = []
    for i in _sample(rng, range(len(taus))):
        rho = rho_end if taus[i] == 0 else off(rho_end, float(taus[i]))
        ref = on.populations(on(rho, t_star)) @ on.rates + p.background
        fails += _close(data[i, 1], ref, PROPAGATE_RTOL * scale, f"t1 row {i}")
    return fails


def check_spin_pumping(cfg, run_dir, rng):
    from sivcav.dynamics import engine
    from sivcav.protocols import build_spin_pump_params

    p = build_spin_pump_params(cfg.blocks["spin_pump"])
    on, off = (_Propagator(s) for s in _spin_pump_systems(engine, p))
    grid = np.linspace(0.0, p.pulse_length, p.samples_per_pulse)
    _h, data = read_csv(os.path.join(run_dir, "data.csv"))
    if data.shape != (p.n_pulses * len(grid), 6):
        return [f"spin-pumping data.csv has shape {data.shape}"]
    rows = _sample(rng, range(len(data)))
    expected = {}
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    for k in range(p.n_pulses):
        states = on.pulse(rho, grid)
        for r in rows:
            if r // len(grid) == k:
                pops = on.populations(states[r % len(grid)])
                expected[r] = np.concatenate(
                    [[pops @ on.rates + p.background], pops])
        rho = _normalized(states[-1])
        if p.pulse_gap > 0:
            rho = _normalized(off(rho, p.pulse_gap))
    # signal relative to its peak; populations are probabilities already
    scale = np.concatenate([[np.max(np.abs(data[:, 1]))], np.ones(4)])
    fails = []
    for r in rows:
        fails += _close(data[r, 1:] / scale, expected[r] / scale, PROPAGATE_RTOL,
                        f"spin-pumping row {r} (relative)")
    return fails


# ---------------------------------------------------------------------------
# magnetostatics oracle
# ---------------------------------------------------------------------------

def _magnets(cfg):
    return [(1e-3 * np.array(m["center_mm"]), 1e-3 * np.array(m["dimensions_mm"]),
             np.array(m["remanence_t"], dtype=float))
            for m in cfg.blocks["magnets"]]


def surface_charge_field(magnets, point, n=GL_NODES) -> np.ndarray:
    """B (tesla) by Gauss-Legendre quadrature of the face charges J.n/mu0."""
    x_gl, w_gl = np.polynomial.legendre.leggauss(n)
    b = np.zeros(3)
    for center, dims, rem in magnets:
        half = 0.5 * dims
        for axis in range(3):
            if rem[axis] == 0.0:
                continue
            ia, ib = [i for i in range(3) if i != axis]
            ga, gb = np.meshgrid(half[ia] * x_gl, half[ib] * x_gl, indexing="ij")
            weights = np.outer(w_gl, w_gl) * half[ia] * half[ib]
            for sign in (1.0, -1.0):
                src = np.zeros((n, n, 3))
                src[:, :, axis] = center[axis] + sign * half[axis]
                src[:, :, ia] = center[ia] + ga
                src[:, :, ib] = center[ib] + gb
                d = point[None, None, :] - src
                r3 = np.sum(d * d, axis=2) ** 1.5
                b += sign * rem[axis] / (4.0 * math.pi) * np.sum(
                    weights[:, :, None] * d / r3[:, :, None], axis=(0, 1))
    return b


def _surface_distance(magnets, pts):
    """Smallest distance of each point to any magnet surface (negative inside)."""
    out = np.full(len(pts), np.inf)
    for center, dims, _rem in magnets:
        gap = np.abs(pts - center) - 0.5 * dims
        outside = np.linalg.norm(np.maximum(gap, 0.0), axis=1)
        inside = np.all(gap <= 0, axis=1)
        out = np.minimum(out, np.where(inside, np.max(gap, axis=1), outside))
    return out


def check_magnet_map(cfg, run_dir, rng):
    header, data = read_csv(os.path.join(run_dir, "data.csv"))
    axes = [cfg.blocks["grid"][k] for k in ("x_mm", "y_mm", "z_mm")]
    grid = np.stack(np.meshgrid(
        *[np.linspace(a["start"] * 1e-3, a["stop"] * 1e-3, a["points"])
          for a in axes], indexing="ij"), axis=-1).reshape(-1, 3)
    if header != ["x_m", "y_m", "z_m", "bx_t", "by_t", "bz_t", "masked"] \
            or data.shape != (len(grid), 7):
        return [f"magnet map data.csv has header {header}, shape {data.shape}"]
    fails = _close(data[:, :3], grid, 1e-10, "magnet map grid coordinates")
    magnets = _magnets(cfg)
    dist = _surface_distance(magnets, grid)
    masked = data[:, 6] == 1.0
    if not np.array_equal(masked, dist < 1e-9):
        fails.append(f"magnet map mask differs from geometry at "
                     f"{int(np.sum(masked != (dist < 1e-9)))} points")
    if np.any(data[masked, 3:6] != 0.0):
        fails.append("magnet map reports a field at masked points")
    for i in _sample(rng, np.flatnonzero(dist >= FIELD_MIN_GAP)):
        ref = surface_charge_field(magnets, grid[i])
        fails += _close(data[i, 3:6], ref, FIELD_RTOL * np.linalg.norm(ref),
                        f"magnet map row {i}")
    return fails


#: op kind (see gen.LAYOUT) -> checker
IN_PROCESS = {
    "cpt": check_cpt,
    "pump_probe": check_pump_probe,
    "t1": check_t1,
    "spin_pumping": check_spin_pumping,
    "magnet_map": check_magnet_map,
}


def check_in_process(op_name, cfg, run_dir, seed):
    rng = random.Random(f"{op_name}/{seed}")
    return IN_PROCESS[gen.op_kind(op_name)](cfg, run_dir, rng)


# ---------------------------------------------------------------------------
# shipped configs, run through the CLI
# ---------------------------------------------------------------------------

def _within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def _acceptance(name, fits, run_dir, repo):
    """Acceptance-suite criterion for one shipped config, or [] if none."""
    if name == "cooperativity_report.cfg":
        fails = []
        for out in ("data.csv", "fits.json"):
            golden = os.path.join(repo, "tests", "golden",
                                  f"cooperativity_report_{out}")
            with open(os.path.join(run_dir, out), "rb") as a, open(golden, "rb") as b:
                if a.read() != b.read():
                    fails.append(f"{name}: {out} differs from {golden}")
        return fails
    if name == "fig4_t1.cfg":
        t1 = fits["t1_recovery"]["t1_ns"]
        return [] if _within(t1, 630.0, 0.02) else [f"{name}: T1 {t1} ns"]
    if name == "fig4_cpt.cfg":
        w = fits["cpt_dip"]["dip_fwhm_mhz"]
        return [] if _within(w, 3.3, 0.10) else [f"{name}: dip FWHM {w} MHz"]
    if name == "fig4_spin_pumping.cfg":
        init = fits["initialization"]
        ok = _within(init["timescale_ns"], 70.0, 0.2) \
            and abs(init["fidelity"] - 0.75) <= 0.05
        return [] if ok else [f"{name}: initialization {init}"]
    if name == "fig2_magnet_map.cfg":
        b = fits["pcc"]["magnitude_t"]
        return [] if 0.25 < b <= 0.26 else [f"{name}: |B_pcc| = {b} T"]
    return []


def check_cli_run(name, run_dir, repo):
    """Every run writes finite data and parseable fits; shipped criteria hold."""
    try:
        _h, data = read_csv(os.path.join(run_dir, "data.csv"))
        with open(os.path.join(run_dir, "fits.json"), encoding="utf-8") as fh:
            fits = json.load(fh)
        with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
            json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{name}: unreadable output in {run_dir}: {exc}"]
    if data.size == 0 or not np.all(np.isfinite(data)):
        return [f"{name}: data.csv is empty or not finite"]
    try:
        return _acceptance(name, fits, run_dir, repo)
    except (KeyError, TypeError) as exc:
        return [f"{name}: fits.json lacks an expected entry: {exc!r}"]

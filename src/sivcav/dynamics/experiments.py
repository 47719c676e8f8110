"""Forward models of the time-domain and scan experiments.

Builds small effective level systems (the 4-level spin-pumping system, the
3-level lambda system, per-emitter reduced systems for laser scans) on top of
the Lindblad engine, with parameters expressed in laboratory units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..constants import K_B_OVER_H, TWO_PI
from ..errors import DomainError, FitError, InvalidParameterError
from ..spectrum import Spectrum
from .engine import (
    Decay,
    Dephasing,
    Drive,
    Level,
    LevelSystem,
    Trace,
    _normalized,
    _trace,
    detuned_steady_states,
    propagate,
)

__all__ = [
    "SpinPumpParams", "CptParams", "PleEmitter",
    "simulate_spin_pumping", "simulate_t1_recovery", "simulate_cpt_scan",
    "fit_cpt_scan_forward", "simulate_ple_scan", "simulate_pump_probe_scan",
]


# ---------------------------------------------------------------------------
# optical spin pumping and T1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinPumpParams:
    """Four-level spin-pumping system: |dn>, |up> ground, |dn'>, |up'> excited.

    The laser drives the spin-preserving transition |dn> -> |dn'>; each
    excited state decays at `optical_rate` in total, a fraction `eta` of it
    through the spin-flipping channel. `t1` is the ground-spin relaxation
    time toward the 50/50 thermal mixture. `background` is an additive
    detection background in the same (rate) units as the signal.
    """

    rabi_freq: float            # Hz
    optical_rate: float         # Hz; excited population decays as exp(-2 pi rate t)
    eta: float                  # spin-flip branching fraction, in [0, 1]
    t1: float                   # s
    f_s_ground: float = 6.8e9   # Hz, read only by the bench's oracle
    f_s_excited: float = 7.0e9  # Hz, read only by the bench's oracle
    background: float = 0.0
    pulse_length: float = 1e-6  # s
    n_pulses: int = 1
    pulse_gap: float = 1e-6     # s
    samples_per_pulse: int = 400

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise InvalidParameterError("eta must lie in [0, 1]")
        if self.rabi_freq < 0 or self.optical_rate <= 0:
            raise InvalidParameterError("rabi_freq >= 0 and optical_rate > 0 required")
        if self.t1 <= 0 or self.pulse_length <= 0 or self.pulse_gap < 0:
            raise InvalidParameterError("t1, pulse_length, pulse_gap must be positive")
        if self.n_pulses < 1 or self.samples_per_pulse < 8:
            raise InvalidParameterError("need n_pulses >= 1, samples_per_pulse >= 8")


def _spin_flips(t1: float, a: str, b: str) -> tuple:
    """Non-radiative Decays a -> b and b -> a at r = 1/(4 pi t1): the pair's
    polarization then decays as exp(-2 (2 pi r) t) = exp(-t / t1)."""
    r = 1.0 / (4.0 * math.pi * t1)
    return (Decay(a, b, r, radiative=False), Decay(b, a, r, radiative=False))


def _spin_pump_system(p: SpinPumpParams, laser_on: bool) -> LevelSystem:
    levels = tuple(Level(lb, 0.0) for lb in ("g_dn", "g_up", "e_dn", "e_up"))
    gam = p.optical_rate
    decays = (
        Decay("e_dn", "g_dn", (1.0 - p.eta) * gam),
        Decay("e_dn", "g_up", p.eta * gam),
        Decay("e_up", "g_up", (1.0 - p.eta) * gam),
        Decay("e_up", "g_dn", p.eta * gam),
        *_spin_flips(p.t1, "g_dn", "g_up"),
    )
    drives = (Drive("g_dn", "e_dn", p.rabi_freq, 0.0),) if laser_on else ()
    return LevelSystem(levels, drives, decays)


def thermal_ground_state() -> np.ndarray:
    """(4, 4) density matrix with equal ground-sublevel populations
    (thermal equilibrium at 4 K)."""
    return np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)


def simulate_spin_pumping(p: SpinPumpParams):
    """Pulse train starting from thermal equilibrium; one Trace per pulse.

    Trace signals include the configured detection background.
    """
    sys_on = _spin_pump_system(p, laser_on=True)
    sys_off = _spin_pump_system(p, laser_on=False)
    rho = thermal_ground_state()
    traces = []
    t0 = 0.0
    grid = np.linspace(0.0, p.pulse_length, p.samples_per_pulse)
    for k in range(p.n_pulses):
        if k:  # the previous pulse and the dark gap after it
            rho = _normalized(rhos[-1])
            t0 += p.pulse_length
            if p.pulse_gap > 0:
                rho = _normalized(propagate(sys_off, rho, [p.pulse_gap])[0])
                t0 += p.pulse_gap
        rhos = propagate(sys_on, rho, grid)
        traces.append(_trace(sys_on, grid + t0, rhos, p.background))
    return traces


def _fit_initialization(trace: Trace):
    """(exponential fit of the pumped tail after the signal peak, spin
    initialization fidelity F = 1 - 0.5 * steady / peak signal).

    The peak is the early-pulse maximum (thermal 50/50 start); the steady
    level is the mean over the last tenth of the pulse. Raises FitError when
    the pulse is too short to reach a plateau (shorter than five fitted
    pumping time constants after the peak).
    """
    sig = np.asarray(trace.signal, dtype=float)
    t = np.asarray(trace.times, dtype=float)
    ipk = int(np.argmax(sig))
    s_peak = float(sig[ipk])
    if s_peak <= 0:
        raise FitError("trace has no positive signal peak")
    tail = sig[ipk:]
    t_tail = t[ipk:] - t[ipk]
    if len(tail) < 8:
        raise FitError("too few samples after the signal peak")
    from ..fitting import EXP_DECAY, lm_fit

    fit = lm_fit(EXP_DECAY, Spectrum(t_tail, tail))
    if "timescale_unidentifiable" not in fit.flags:
        if t_tail[-1] < 5.0 * fit["timescale"]:
            raise FitError(
                "no plateau: pulse extends only "
                f"{t_tail[-1] / fit['timescale']:.2f} fitted time constants "
                "past the peak (need 5)")
    n_last = max(len(sig) // 10, 2)
    s_steady = float(np.mean(sig[-n_last:]))
    return fit, 1.0 - 0.5 * (s_steady / s_peak)


def simulate_t1_recovery(p: SpinPumpParams, taus) -> Spectrum:
    """Early-pulse peak signal versus inter-pulse delay tau.

    The first pulse pumps the spin from thermal equilibrium; after a dark
    interval tau the next pulse's signal is sampled at the (fixed) time where
    the thermal-start pulse peaks. In the rate-equation limit the recovery is
    A - B*exp(-tau/t1) exactly. The delays are one dark propagation of the
    pumped state, and the probes one laser-on propagation of that stack.
    """
    taus = np.asarray(taus, dtype=float)
    if np.any(taus < 0) or not np.all(np.diff(taus) > 0):
        raise InvalidParameterError("taus must be non-negative and increasing")
    sys_on = _spin_pump_system(p, laser_on=True)
    sys_off = _spin_pump_system(p, laser_on=False)
    grid = np.linspace(0.0, p.pulse_length, p.samples_per_pulse)
    rhos = propagate(sys_on, thermal_ground_state(), grid)
    i_star = int(np.argmax(_trace(sys_on, grid, rhos).signal))
    t_star = max(float(grid[i_star]), float(grid[1]))

    rho_end = _normalized(rhos[-1])
    rhos = _normalized(propagate(sys_off, rho_end, taus))
    rhos[taus == 0] = rho_end
    # the probe signal at t* versus delay, checked like any trace
    probe = _trace(sys_on, taus, propagate(sys_on, rhos, [t_star])[:, 0])
    return Spectrum(taus, probe.signal + p.background)


# ---------------------------------------------------------------------------
# coherent population trapping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CptParams:
    """Lambda system: two ground sublevels split by f_s, one excited level.

    `gamma_s` is the ground-pair dephasing rate in the engine convention
    (coherence decays as exp(-2 pi gamma_s t)), so a dephasing time T2* maps
    to gamma_s = 1/(2 pi T2*) and the weak-drive dark-resonance dip has FWHM
    1/(pi T2*). The optical decay branches equally to both ground states.
    """

    rabi_pump: float       # Hz
    rabi_probe: float      # Hz
    optical_rate: float    # Hz
    gamma_s: float         # Hz
    f_s: float = 6.8e9     # Hz, read only by the bench's oracle
    detuning_split: str = "symmetric"  # symmetric | probe

    def __post_init__(self):
        if self.rabi_pump < 0 or self.rabi_probe < 0:
            raise InvalidParameterError("Rabi frequencies must be >= 0")
        if self.optical_rate <= 0:
            raise InvalidParameterError("optical_rate must be positive")
        if self.gamma_s < 0:
            raise InvalidParameterError("gamma_s must be >= 0")
        if self.detuning_split not in ("symmetric", "probe"):
            raise InvalidParameterError("detuning_split must be 'symmetric' or 'probe'")

    @classmethod
    def from_t2_star(cls, t2_star: float, **kwargs) -> "CptParams":
        """Build with gamma_s matching a dephasing time T2* (seconds)."""
        if t2_star <= 0:
            raise InvalidParameterError("t2_star must be positive")
        return cls(gamma_s=1.0 / (TWO_PI * t2_star), **kwargs)

    def dark_dip_fwhm(self) -> float:
        """Weak-drive dip width 1/(pi T2*) = 2*gamma_s, Hz."""
        return 2.0 * self.gamma_s


def _cpt_system(p: CptParams) -> LevelSystem:
    """The lambda system with both lasers on resonance: the scan template."""
    levels = (Level("g1", 0.0), Level("g2", 0.0), Level("e", 0.0))
    drives = (
        Drive("g1", "e", p.rabi_pump),
        Drive("g2", "e", p.rabi_probe),
    )
    decays = (
        Decay("e", "g1", 0.5 * p.optical_rate),
        Decay("e", "g2", 0.5 * p.optical_rate),
    )
    dephasings = (Dephasing("g1", "g2", p.gamma_s),) if p.gamma_s > 0 else ()
    return LevelSystem(levels, drives, decays, dephasings)


def _steady_signal(template: LevelSystem, detunings) -> np.ndarray:
    """Steady-state radiative flux (Hz) of `template` at each detuning row."""
    rho = detuned_steady_states(template, detunings)
    return np.real(np.diagonal(rho, axis1=1, axis2=2)) @ template.radiative_rates()


def simulate_cpt_scan(p: CptParams, detunings) -> Spectrum:
    """Steady-state fluorescence versus two-photon (Raman) detuning.

    The dark resonance sits at zero detuning; with zero ground dephasing and
    equal Rabi frequencies the fluorescence vanishes there exactly.
    """
    detunings = np.asarray(detunings, dtype=float)
    if p.detuning_split == "symmetric":
        drive_detunings = np.stack([0.5 * detunings, -0.5 * detunings], axis=-1)
    else:
        drive_detunings = np.stack([np.zeros_like(detunings), -detunings], axis=-1)
    signal = _steady_signal(_cpt_system(p), drive_detunings)
    return Spectrum(detunings, signal)


def fit_cpt_scan_forward(spectrum: Spectrum, p_template: CptParams,
                         p0=None):
    """Fit a CPT scan with the full steady-state lambda lineshape.

    Alternative to the inverted-Lorentzian dip fit: the free parameters are
    (gamma_s, rabi, scale) with pump and probe driven equally, everything
    else taken from `p_template`. The Jacobian is finite-difference since the
    lineshape has no closed form. Returns a FitResult with those parameters.
    """
    from ..fitting import Model, lm_fit

    def forward(x, params):
        gamma_s, rabi, scale = params
        p = replace(p_template, gamma_s=float(gamma_s),
                    rabi_pump=float(rabi), rabi_probe=float(rabi))
        return scale * simulate_cpt_scan(p, x).y

    def fd_jac(x, params):
        params = np.asarray(params, dtype=float)
        out = np.zeros((len(x), len(params)))
        base = forward(x, params)
        for k in range(len(params)):
            h = 1e-4 * max(abs(params[k]), 1e-12)
            stepped = params.copy()
            stepped[k] += h
            out[:, k] = (forward(x, stepped) - base) / h
        return out

    model = Model(
        name="cpt_forward",
        param_names=("gamma_s", "rabi", "scale"),
        func=forward,
        jac=fd_jac,
        guess=lambda s: np.array([p_template.gamma_s, p_template.rabi_pump, 1.0]),
        lower=(0.0, 1e-300, 1e-300),
    )
    return lm_fit(model, spectrum, p0)


# ---------------------------------------------------------------------------
# PLE scans (single laser, and pump-probe)
# ---------------------------------------------------------------------------

# (2 pi rate)^2 stays below 4e301, so the three squares of the two-level line
# shape sum to a finite float
_MAX_OPTICAL_RATE = 1e150


@dataclass(frozen=True)
class PleEmitter:
    """One emitter in a PLE scan: its transition table plus optical parameters.

    `linewidth` is the total optical decay rate (Hz), which is also the zero
    power Lorentzian FWHM in this convention; `rabi` is the bare probe Rabi
    frequency, scaled per transition by sqrt(dipole weight).
    """

    table: TransitionTable
    linewidth: float
    rabi: float
    temperature: float = 4.0  # K, thermal weights of the ground sublevels

    def __post_init__(self):
        if self.linewidth <= 0:
            raise InvalidParameterError("linewidth must be positive")
        if self.rabi < 0:
            raise InvalidParameterError("rabi must be >= 0")
        if max(self.linewidth, self.rabi) > _MAX_OPTICAL_RATE:
            raise DomainError(
                f"linewidth and rabi must be at most {_MAX_OPTICAL_RATE:g} Hz: the "
                "squares of their angular frequencies overflow in the line shape")
        if self.temperature <= 0:
            raise InvalidParameterError("temperature must be positive")

    def ground_populations(self) -> dict:
        """Boltzmann weights of the table's ground states, keyed by state index."""
        energy = {t.ground_state: t.ground_energy for t in self.table.sublevel}
        states = sorted(energy)
        e0 = energy[states[0]]
        weights = [math.exp(-(energy[i] - e0) / (K_B_OVER_H * self.temperature))
                   for i in states]
        z = sum(weights)
        return {i: w / z for i, w in zip(states, weights)}


def _two_level_excited_population(rabi_hz, detuning_hz, gamma_hz):
    """Steady excited population of a driven, radiatively damped two-level atom."""
    om = TWO_PI * rabi_hz
    de = TWO_PI * detuning_hz
    ga = TWO_PI * gamma_hz
    # a detuning whose square overflows gives inf below the line: population 0
    with np.errstate(over="ignore"):
        return 0.25 * om ** 2 / (de ** 2 + 0.5 * om ** 2 + 0.25 * ga ** 2)


def _single_laser_signal(emitter: PleEmitter, freqs: np.ndarray) -> np.ndarray:
    pops = emitter.ground_populations()
    out = np.zeros_like(freqs)
    for t in emitter.table.sublevel:
        if t.dipole_weight <= 0:
            continue
        om = emitter.rabi * math.sqrt(t.dipole_weight)
        pop = pops[t.ground_state]
        out += pop * emitter.linewidth * _two_level_excited_population(
            om, freqs - t.frequency, emitter.linewidth)
    return out


#: a pump-probe laser drives no line farther than this many linewidths away
_PUMP_PROBE_CUTOFF_LINEWIDTHS = 50.0


def _scan_frequencies(frequencies) -> np.ndarray:
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.ndim != 1 or len(freqs) == 0:
        raise InvalidParameterError("frequencies must be a non-empty 1-d array")
    return freqs


def simulate_ple_scan(emitters, frequencies) -> Spectrum:
    """Fluorescence versus scanning-laser frequency: each emitter contributes
    an incoherent sum of saturated Lorentzians (dipole weight times thermal
    ground population times steady two-level excitation)."""
    freqs = _scan_frequencies(frequencies)
    total = np.zeros_like(freqs)
    for emitter in emitters:
        total += _single_laser_signal(emitter, freqs)
    return Spectrum(freqs, total)


def simulate_pump_probe_scan(emitter: PleEmitter, frequencies, pump_frequency,
                             pump_rabi, t1=None) -> Spectrum:
    """Probe fluorescence versus probe frequency with a fixed pump laser.

    The two-laser steady state makes weak spin-flipping lines appear once
    optical pumping repopulates the sublevel they start from. Only
    transitions from ground states 0 and 1 (the thermally occupied lower
    orbital branch) participate; each laser couples to its nearest transition
    within `_PUMP_PROBE_CUTOFF_LINEWIDTHS`. Excited-state decay branches to
    the two ground sublevels with the table's dipole weights, renormalized
    over that pair (standing in for fast orbital relaxation of any
    population that leaves the doublet). The scan points that drive the same
    lines share one template system and are solved in one stack over their
    detunings. Template levels are named by state index: g0, g1, e<index>.

    Raises DomainError without `t1` at zero field, where no optical decay
    flips the ground spin, and for a pump beyond the cutoff of every line.
    """
    freqs = _scan_frequencies(frequencies)
    if t1 is None and not emitter.table.spin_resolved:
        raise DomainError("at zero field no optical decay flips the ground spin, "
                          "so without t1_ns the pumped steady state is not unique")
    candidates = [t for t in emitter.table.sublevel if t.ground_state < 2]
    gam = emitter.linewidth

    # nearest line to each scan point and to the pump (first of equals);
    # -1 beyond the cutoff
    line_freqs = np.array([t.frequency for t in candidates])
    dist = np.abs(line_freqs - np.append(freqs, pump_frequency)[:, None])
    nearest = np.argmin(dist, axis=1)
    gap = dist[np.arange(len(dist)), nearest]
    nearest[~(gap <= _PUMP_PROBE_CUTOFF_LINEWIDTHS * gam)] = -1
    if nearest[-1] < 0:
        raise DomainError(
            f"the pump at {pump_frequency:.6g} Hz drives no line: it lies "
            f"{gap[-1] / gam:.3g} linewidths from the nearest line of ground "
            f"states 0 and 1, beyond the {_PUMP_PROBE_CUTOFF_LINEWIDTHS:g}-"
            "linewidth cutoff")
    t_pump = candidates[nearest[-1]]

    # decay branching per excited state, renormalized over the ground doublet
    branch = {}
    for t in candidates:
        branch.setdefault(t.excited_state, {})[t.ground_state] = t.dipole_weight

    def template(chosen):
        excited = sorted({t.excited_state for t, _, _ in chosen})
        labels = ["g0", "g1"] + [f"e{f}" for f in excited]
        drives = [
            Drive(f"g{t.ground_state}", f"e{t.excited_state}",
                  rabi * math.sqrt(t.dipole_weight))
            for t, rabi, _ in chosen
        ]
        decays = []
        for f in excited:
            weights = branch[f]
            total = sum(weights.values())
            for i, wt in weights.items():
                decays.append(Decay(f"e{f}", f"g{i}", gam * wt / total))
        if t1 is not None:
            decays += _spin_flips(t1, "g0", "g1")
        return LevelSystem(tuple(Level(lb, 0.0) for lb in labels),
                           tuple(drives), tuple(decays))

    groups = {}  # probe line -> scan indices; -1 where the probe adds no line
    for i, j in enumerate(nearest[:-1].tolist()):
        groups.setdefault(-1 if j == nearest[-1] else j, []).append(i)
    out = np.zeros_like(freqs)
    for j, idx in groups.items():
        # without a probe line every scan index has the pump's one row
        rows = len(idx) if j >= 0 else 1
        chosen = [(t_pump, pump_rabi,
                   np.full(rows, pump_frequency - t_pump.frequency))]
        if j >= 0:
            chosen.append((candidates[j], emitter.rabi,
                           freqs[idx] - candidates[j].frequency))
        detunings = np.stack([det for _, _, det in chosen], axis=-1)
        out[idx] = _steady_signal(template(chosen), detunings)
    return Spectrum(freqs, out)

import re

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings, strategies as st

from sivcav.dynamics import (
    CptParams,
    Decay,
    Drive,
    Level,
    LevelSystem,
    PleEmitter,
    SpinPumpParams,
    Trace,
    simulate_cpt_scan,
    simulate_ple_scan,
    simulate_pump_probe_scan,
    simulate_spin_pumping,
    propagate,
    simulate_t1_recovery,
)
from sivcav.dynamics.engine import _trace
from sivcav.dynamics.experiments import (
    _fit_initialization,
    _spin_pump_system,
    thermal_ground_state,
)
from sivcav.errors import DomainError, FitError, InvalidParameterError
from sivcav.fitting import (
    CPT_DIP,
    EXP_DECAY,
    EXP_RECOVERY,
    LORENTZIAN,
    Spectrum,
    lm_fit,
)
from sivcav.siv_levels import (
    ManifoldParams,
    OpticalLine,
    SivModel,
    SublevelTransition,
    TransitionTable,
    transition_table,
)

from test_dynamics_engine import steady_state

# calibration shipped in configs/fig4_spin_pumping.cfg
CALIB = SpinPumpParams(rabi_freq=41.0e6, optical_rate=93.62e6, eta=0.15,
                       t1=630e-9, background=4.64e6, pulse_length=1e-6,
                       n_pulses=1, pulse_gap=1e-6, samples_per_pulse=400)


def initialization_fidelity(trace):
    return _fit_initialization(trace)[1]


def synthetic_trace(peak, steady, tau=70e-9, n=400, length=1e-6):
    t = np.linspace(0, length, n)
    sig = steady + (peak - steady) * np.exp(-t / tau)
    pops = np.tile([0.5, 0.5], (n, 1))
    return Trace(t, sig, pops, ("a", "b"))


class TestSpinPumping:
    def test_calibrated_timescale_and_fidelity(self):
        trace = simulate_spin_pumping(CALIB)[0]
        i_pk = int(np.argmax(trace.signal))
        fit = lm_fit(
            EXP_DECAY, Spectrum(trace.times[i_pk:] - trace.times[i_pk],
                                trace.signal[i_pk:]))
        assert fit["timescale"] == pytest.approx(70e-9, rel=0.2)
        assert initialization_fidelity(trace) == pytest.approx(0.75, abs=0.05)

    def test_perfect_cycling_is_flat(self):
        # eta = 0 with negligible ground relaxation: no pumping
        params = replace(CALIB, eta=0.0, t1=1.0, background=0.0)
        trace = simulate_spin_pumping(params)[0]
        late = trace.signal[trace.times > 100e-9]
        assert (late.max() - late.min()) / late.mean() < 1e-3

    def test_long_gap_restores_first_pulse_peak(self):
        params = replace(CALIB, n_pulses=3, pulse_gap=10 * CALIB.t1)
        traces = simulate_spin_pumping(params)
        peaks = [float(np.max(t.signal)) for t in traces]
        assert peaks[1] == pytest.approx(peaks[0], rel=0.01)
        assert peaks[2] == pytest.approx(peaks[0], rel=0.01)

    def test_short_gap_reduces_following_peaks(self):
        params = replace(CALIB, n_pulses=2, pulse_gap=50e-9)
        traces = simulate_spin_pumping(params)
        assert np.max(traces[1].signal) < 0.75 * np.max(traces[0].signal)

    def test_train_ends_with_its_last_pulse(self, monkeypatch):
        # no dark gap is propagated after the last pulse
        import sivcav.dynamics.experiments as experiments

        calls = []

        def recording(sys, rho0, dts):
            calls.append("lit" if sys.drives else "dark")
            return propagate(sys, rho0, dts)

        monkeypatch.setattr(experiments, "propagate", recording)
        simulate_spin_pumping(replace(CALIB, n_pulses=3))
        assert calls == ["lit", "dark", "lit", "dark", "lit"]

    def test_populations_sum_to_one(self):
        trace = simulate_spin_pumping(CALIB)[0]
        sums = trace.populations.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-8

    def test_param_validation(self):
        with pytest.raises(InvalidParameterError):
            replace(CALIB, eta=1.4)
        with pytest.raises(InvalidParameterError):
            replace(CALIB, t1=-1e-9)


class TestInitializationFidelity:
    def test_no_pumping_gives_half(self):
        assert initialization_fidelity(
            synthetic_trace(100.0, 100.0)) == pytest.approx(0.5)

    def test_full_pumping_gives_one(self):
        assert initialization_fidelity(
            synthetic_trace(100.0, 0.0)) == pytest.approx(1.0, abs=1e-3)

    def test_half_ratio_gives_three_quarters(self):
        assert initialization_fidelity(
            synthetic_trace(100.0, 50.0)) == pytest.approx(0.75, abs=1e-3)

    def test_short_pulse_raises(self):
        with pytest.raises(FitError):
            initialization_fidelity(
                synthetic_trace(100.0, 50.0, tau=70e-9, length=100e-9))


class TestT1Recovery:
    def test_fit_recovers_configured_t1(self):
        taus = np.linspace(20e-9, 4e-6, 25)
        spec = simulate_t1_recovery(CALIB, taus)
        fit = lm_fit(EXP_RECOVERY, spec)
        assert fit["timescale"] == pytest.approx(630e-9, rel=0.02)

    def test_zero_gap_peak_equals_pumped_level(self):
        taus = np.array([0.0, 10 * CALIB.t1])
        spec = simulate_t1_recovery(CALIB, taus)
        trace = simulate_spin_pumping(CALIB)[0]
        plateau = float(np.mean(trace.signal[-40:]))
        first_peak = float(np.max(trace.signal))
        assert spec.y[0] == pytest.approx(plateau, rel=0.02)
        assert spec.y[1] == pytest.approx(first_peak, rel=0.01)

    def test_monotone_recovery(self):
        taus = np.linspace(20e-9, 3e-6, 12)
        spec = simulate_t1_recovery(CALIB, taus)
        assert np.all(np.diff(spec.y) > 0)

    @settings(max_examples=40, deadline=None)
    @given(rabi=st.floats(1e6, 100e6), rate=st.floats(20e6, 200e6),
           eta=st.floats(0.0, 0.5), t1=st.floats(50e-9, 5e-6),
           background=st.floats(0.0, 1e7), samples=st.integers(8, 60),
           delays=st.lists(st.floats(1e-9, 2e-5), min_size=0, max_size=8,
                           unique=True))
    def test_batch_matches_per_delay_loop(self, rabi, rate, eta, t1, background,
                                          samples, delays):
        p = SpinPumpParams(rabi_freq=rabi, optical_rate=rate, eta=eta, t1=t1,
                           background=background, samples_per_pulse=samples)
        taus = np.array([0.0] + sorted(delays))
        ref = per_delay_t1_recovery(p, taus)
        spec = simulate_t1_recovery(p, taus)
        assert np.array_equal(spec.x, taus)
        assert np.max(np.abs(spec.y - ref)) <= 1e-14 * np.max(np.abs(ref))


def per_delay_t1_recovery(p, taus):
    """Reference T1 recovery: one dark propagation and one probe per delay."""
    sys_on = _spin_pump_system(p, laser_on=True)
    sys_off = _spin_pump_system(p, laser_on=False)
    grid = np.linspace(0.0, p.pulse_length, p.samples_per_pulse)
    rhos = propagate(sys_on, thermal_ground_state(), grid)
    first = _trace(sys_on, grid, rhos)
    t_star = max(float(grid[int(np.argmax(first.signal))]), float(grid[1]))
    rho_end = rhos[-1] / np.trace(rhos[-1]).real
    peaks = []
    for tau in taus:
        state = rho_end
        if tau > 0:
            rho = propagate(sys_off, rho_end, [tau])[0]
            state = rho / np.trace(rho).real
        probe = _trace(sys_on, [0.0, t_star], propagate(sys_on, state, [0.0, t_star]))
        peaks.append(float(probe.signal[-1]) + p.background)
    return np.array(peaks)


class TestCpt:
    def test_dark_state_at_zero_detuning(self):
        p = CptParams(rabi_pump=5e6, rabi_probe=5e6, optical_rate=157e6,
                      gamma_s=0.0)
        spec = simulate_cpt_scan(p, np.array([-20e6, 0.0, 20e6]))
        assert spec.y[1] <= 1e-6 * spec.y[0]

    def test_dip_width_approaches_dephasing_limit(self):
        p = CptParams.from_t2_star(97e-9, rabi_pump=3e6, rabi_probe=3e6,
                                   optical_rate=157e6)
        det = np.linspace(-5e6, 5e6, 121)
        res = lm_fit(CPT_DIP, simulate_cpt_scan(p, det))
        assert res["dip_fwhm"] == pytest.approx(p.dark_dip_fwhm(), rel=0.05)
        assert res["dip_fwhm"] / 1e6 == pytest.approx(3.3, rel=0.1)

    def test_power_broadening_monotone(self):
        det = np.linspace(-8e6, 8e6, 81)
        widths = []
        for om in (12e6, 8e6, 5e6):
            p = CptParams.from_t2_star(97e-9, rabi_pump=om, rabi_probe=om,
                                       optical_rate=157e6)
            res = lm_fit(CPT_DIP, simulate_cpt_scan(p, det))
            widths.append(res["dip_fwhm"])
        assert widths[0] > widths[1] > widths[2]

    def test_symmetric_in_detuning(self):
        p = CptParams.from_t2_star(97e-9, rabi_pump=4e6, rabi_probe=4e6,
                                   optical_rate=157e6)
        for delta in (1e6, 3e6, 7e6):
            pair = simulate_cpt_scan(p, np.array([-delta, delta]))
            assert abs(pair.y[0] - pair.y[1]) <= 1e-6 * pair.y[0]

    def test_empty_scan_rejected(self):
        p = CptParams(rabi_pump=5e6, rabi_probe=5e6, optical_rate=157e6,
                      gamma_s=1e6)
        with pytest.raises(InvalidParameterError):
            simulate_cpt_scan(p, np.array([]))

    def test_t2_star_constructor(self):
        p = CptParams.from_t2_star(97e-9, rabi_pump=1e6, rabi_probe=1e6,
                                   optical_rate=157e6)
        # dark line FWHM = 1/(pi T2*)
        assert p.dark_dip_fwhm() == pytest.approx(1.0 / (np.pi * 97e-9), rel=1e-12)

    def test_forward_model_fit_recovers_dephasing(self):
        # full steady-state lambda lineshape as the fit model (the
        # alternative to the inverted-Lorentzian dip)
        from sivcav.dynamics import fit_cpt_scan_forward

        p_true = CptParams.from_t2_star(97e-9, rabi_pump=5e6, rabi_probe=5e6,
                                        optical_rate=157e6)
        det = np.linspace(-6e6, 6e6, 41)
        spec = simulate_cpt_scan(p_true, det)
        res = fit_cpt_scan_forward(
            spec, p_true, p0=np.array([1.3 * p_true.gamma_s, 4.2e6, 0.9]))
        assert res.converged
        assert res["gamma_s"] == pytest.approx(p_true.gamma_s, rel=1e-6)
        assert res["rabi"] == pytest.approx(5e6, rel=1e-6)


def single_line_table(freq=406.8e12, weight=1.0):
    line = SublevelTransition(label="1", parent="C", frequency=freq,
                              dipole_weight=weight, spin_character="preserving",
                              ground_energy=0.0, excited_energy=freq - 406.8e12,
                              ground_state=0, excited_state=0)
    return TransitionTable(optical=(OpticalLine("C", freq),),
                           sublevel=(line,), delta_gs=46e9, delta_es=255e9,
                           f_s_ground=0.0, f_s_excited=0.0, spin_resolved=True)


DEMO_MODEL = SivModel(
    ManifoldParams(46e9, 15e9, 8e9, 0.1, 2.0),
    ManifoldParams(255e9, 250e9, 100e9, 0.1, 2.0),
    406.8e12,
    b_field=(0.25062, 0.0, -0.04423),
    axis=(0.88295, 0.46947, 0.0))


def assert_pump_probe_matches_per_point(emitter, freqs, pump_freq, pump_rabi, t1):
    """`simulate_pump_probe_scan` against an oracle that, per scan point,
    picks each laser's nearest line, keys its states on the lines' state
    indices, builds the reduced system at that point's detunings and solves
    it alone."""
    table = emitter.table
    ground = {t.ground_state: t.ground_energy for t in table.sublevel}
    excited = {t.excited_state: t.excited_energy for t in table.sublevel}
    # the indices count up the eigenvalues: where two states' energies
    # differ, the lower index has the lower energy
    for energy in (ground, excited):
        assert [energy[k] for k in sorted(energy)] == sorted(energy.values())
    cands = [t for t in table.sublevel if t.ground_state < 2]
    cutoff = 50 * emitter.linewidth

    def nearest(freq):
        best = min(cands, key=lambda t: abs(t.frequency - freq))
        return best if abs(best.frequency - freq) <= cutoff else None

    def point_signal(nu):
        t_pump, t_probe = nearest(pump_freq), nearest(nu)
        chosen = [(t_pump, pump_rabi, pump_freq - t_pump.frequency)]
        if (t_probe is not None
                and (t_probe.ground_state, t_probe.excited_state)
                != (t_pump.ground_state, t_pump.excited_state)):
            chosen.append((t_probe, emitter.rabi, nu - t_probe.frequency))
        upper = sorted({t.excited_state for t, _, _ in chosen})
        levels = [Level(f"g{i}", ground[i]) for i in (0, 1)]
        levels += [Level(f"e{f}", 4.068e14 + excited[f]) for f in upper]
        drives = [Drive(f"g{t.ground_state}", f"e{t.excited_state}",
                        rabi * np.sqrt(t.dipole_weight), det)
                  for t, rabi, det in chosen]
        decays = [Decay("g0", "g1", 1 / (4 * np.pi * t1), radiative=False),
                  Decay("g1", "g0", 1 / (4 * np.pi * t1), radiative=False)]
        for f in upper:
            weights = {t.ground_state: t.dipole_weight for t in cands
                       if t.excited_state == f}
            total = sum(weights.values())
            decays += [Decay(f"e{f}", f"g{i}", emitter.linewidth * w / total)
                       for i, w in weights.items()]
        sys_ = LevelSystem(tuple(levels), tuple(drives), tuple(decays))
        return float(np.real(np.diag(steady_state(sys_))) @ sys_.radiative_rates())

    spec = simulate_pump_probe_scan(emitter, freqs, pump_freq, pump_rabi, t1=t1)
    ref = np.array([point_signal(float(nu)) for nu in freqs])
    assert np.max(np.abs(spec.y - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestPleScan:
    def test_detuning_whose_square_overflows_reads_zero(self):
        # a scan end of 1e150 THz leaked an overflow warning before exit 0
        emitter = PleEmitter(table=single_line_table(), linewidth=200e6, rabi=5e6)
        spec = simulate_ple_scan([emitter], [406.8e12, 1e162])
        assert spec.y[0] > 0 and spec.y[1] == 0.0

    def test_single_transition_is_lorentzian(self):
        emitter = PleEmitter(table=single_line_table(), linewidth=200e6,
                             rabi=5e6)
        freqs = np.linspace(406.8e12 - 2e9, 406.8e12 + 2e9, 401)
        spec = simulate_ple_scan([emitter], freqs)
        fit = lm_fit(LORENTZIAN, Spectrum(freqs, spec.y))
        assert fit.converged
        assert fit["center"] == pytest.approx(406.8e12, abs=2e6)
        # weak drive: FWHM approaches the natural linewidth
        assert fit["fwhm"] == pytest.approx(200e6, rel=0.01)

    def test_aligned_field_hides_flipping_lines(self):
        # the flipping weight vanishes for parallel alignment, so a scan
        # across the flipping-line position shows only the smooth tails of
        # the preserving lines: no local feature above that background
        model = SivModel(ManifoldParams(46e9), ManifoldParams(255e9),
                         406.8e12, b_field=(0, 0, 0.243))
        table = transition_table(model)
        emitter = PleEmitter(table=table, linewidth=157e6, rabi=10e6)
        flip = [t for t in table.lines_of("C") if t.spin_character == "flipping"]
        assert all(t.dipole_weight < 1e-6 for t in flip)
        nu_flip = flip[0].frequency
        window = np.linspace(nu_flip - 1e9, nu_flip + 1e9, 81)
        spec = simulate_ple_scan([emitter], window)
        tail_background = max(spec.y[0], spec.y[-1])
        bump = np.max(spec.y) - tail_background
        peak = np.max(simulate_ple_scan(
            [emitter], np.unique([t.frequency for t in table.lines_of("C")
                                  if t.spin_character == "preserving"])).y)
        assert bump < 1e-6 * peak

    def test_pump_probe_reveals_flipping_partner(self):
        table = transition_table(DEMO_MODEL)
        emitter = PleEmitter(table=table, linewidth=157e6, rabi=15e6)
        lines = {t.label: t for t in table.lines_of("C")}
        pump = lines["2"]
        partner = lines["1"]  # flipping line sharing the excited state
        fs = table.f_s_ground
        assert partner.frequency - pump.frequency == pytest.approx(fs, rel=1e-9)

        window = np.linspace(partner.frequency - 1.5e9,
                             partner.frequency + 1.5e9, 301)
        probed = simulate_pump_probe_scan(emitter, window, pump.frequency, 30e6,
                                          t1=630e-9)
        unpumped = simulate_ple_scan([emitter], window)
        assert np.max(probed.y) > 5 * np.max(unpumped.y)
        # the revealed feature sits one ground spin splitting from the pump
        centroid = float(np.sum(window * probed.y) / np.sum(probed.y))
        assert centroid - pump.frequency == pytest.approx(fs, abs=30e6)

    def test_pump_probe_matches_per_point_systems(self):
        table = transition_table(DEMO_MODEL)
        emitter = PleEmitter(table=table, linewidth=157e6, rabi=15e6)
        lines = {t.label: t for t in table.lines_of("C")}
        # spans probe lines of both excited states, the pump's own line and
        # points beyond every line's cutoff
        cands = [t.frequency for t in table.sublevel if t.ground_state < 2]
        freqs = np.linspace(min(cands) - 12e9, max(cands) + 12e9, 61)
        assert_pump_probe_matches_per_point(emitter, freqs,
                                            lines["2"].frequency + 20e6, 30e6,
                                            630e-9)

    @settings(max_examples=25, deadline=None)
    @given(strain=st.tuples(*[st.floats(0.0, 50e9)] * 2,
                            *[st.floats(0.0, 300e9)] * 2),
           b_norm=st.floats(0.01, 1.0),
           direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
               lambda v: np.linalg.norm(v) > 0.1),
           line=st.integers(0, 7), detuning=st.floats(-1.0, 1.0),
           t1=st.floats(100e-9, 10e-6))
    # zero strain and a field across the symmetry axis: the two lower ground
    # states stay exactly degenerate, so do lines C1/C4 and C2/C3, and an
    # oracle keyed on energies took an upper-branch state as its second one
    @example(strain=(0.0, 0.0, 0.0, 0.0), b_norm=1.0, direction=(0.0, 0.0, 1.0),
             line=0, detuning=0.0, t1=8.102912187170022e-06)
    def test_pump_probe_matches_per_point_systems_on_random_models(
            self, strain, b_norm, direction, line, detuning, t1):
        # the templates against the per-point oracle, with the pump on a line
        # of ground state 0 or 1 and within one linewidth of it
        b = b_norm * np.array(direction) / np.linalg.norm(direction)
        model = SivModel(ManifoldParams(46e9, *strain[:2]),
                         ManifoldParams(255e9, *strain[2:]), 406.8e12,
                         b_field=tuple(b), axis=DEMO_MODEL.axis)
        emitter = PleEmitter(table=transition_table(model), linewidth=157e6,
                             rabi=15e6)
        cands = [t for t in emitter.table.sublevel if t.ground_state < 2]
        pump_freq = cands[line].frequency + detuning * emitter.linewidth
        nus = [t.frequency for t in cands]
        freqs = np.linspace(min(nus) - 12e9, max(nus) + 12e9, 61)
        assert_pump_probe_matches_per_point(emitter, freqs, pump_freq, 30e6, t1)

    def test_pump_probe_without_t1_at_zero_field_is_rejected(self):
        model = replace(DEMO_MODEL, b_field=(0.0, 0.0, 0.0))
        emitter = PleEmitter(table=transition_table(model), linewidth=157e6,
                             rabi=15e6)
        pump = emitter.table.lines_of("C")[1].frequency
        with pytest.raises(DomainError, match="at zero field no optical decay "
                                              "flips the ground spin"):
            simulate_pump_probe_scan(emitter, [pump], pump, 30e6)
        # t1 relaxes the ground spin, and the scan runs
        assert simulate_pump_probe_scan(emitter, [pump], pump, 30e6, 630e-9).y[0] > 0

    def test_pump_beyond_every_line_is_rejected(self):
        emitter = PleEmitter(table=transition_table(DEMO_MODEL), linewidth=157e6,
                             rabi=15e6)
        cands = [t.frequency for t in emitter.table.sublevel if t.ground_state < 2]
        # just beyond the cutoff, far beyond, not finite, and on a line of
        # ground states 2 and 3 (parent B), which the model does not hold
        pumps = [max(cands) + 50.01 * 157e6, -1e306, np.inf, np.nan,
                 emitter.table.lines_of("B")[1].frequency]
        for pump in pumps:
            with pytest.raises(DomainError, match="drives no line"):
                simulate_pump_probe_scan(emitter, cands, pump, 30e6, 630e-9)

    def test_zero_field_is_the_vanishing_field_limit(self):
        # the degenerate ground states at zero field are four states, not
        # two energies: the signal matches 1 nT within roundoff
        def scan(b_field):
            model = SivModel(ManifoldParams(46e9, 30e9), ManifoldParams(255e9, 150e9),
                             406.8e12, b_field=b_field)
            emitter = PleEmitter(table=transition_table(model), linewidth=180e6,
                                 rabi=25e6)
            freqs = np.linspace(406.6e12, 406.7e12, 501)
            return simulate_ple_scan([emitter], freqs).y

        assert scan((0, 0, 0)) == pytest.approx(scan((0, 0, 1e-9)), rel=1e-6)

    def test_multiple_emitters_superpose(self):
        e1 = PleEmitter(table=single_line_table(406.80e12), linewidth=200e6,
                        rabi=5e6)
        e2 = PleEmitter(table=single_line_table(406.81e12), linewidth=200e6,
                        rabi=5e6)
        freqs = np.linspace(406.795e12, 406.815e12, 501)
        both = simulate_ple_scan([e1, e2], freqs)
        assert np.allclose(both.y,
                           simulate_ple_scan([e1], freqs).y
                           + simulate_ple_scan([e2], freqs).y)

    def test_thermal_weights(self):
        emitter = PleEmitter(table=single_line_table(), linewidth=200e6,
                             rabi=5e6, temperature=4.0)
        pops = emitter.ground_populations()
        assert sum(pops.values()) == pytest.approx(1.0)


CPT = dict(rabi_pump=5e6, rabi_probe=5e6, optical_rate=157e6, gamma_s=1e6)


# each bad argument of a forward model's parameters or inputs, and the one
# message that names it
@pytest.mark.parametrize("build, error, message", [
    (lambda: replace(CALIB, optical_rate=0.0), InvalidParameterError,
     "rabi_freq >= 0 and optical_rate > 0 required"),
    (lambda: replace(CALIB, samples_per_pulse=7), InvalidParameterError,
     "need n_pulses >= 1, samples_per_pulse >= 8"),
    (lambda: replace(CALIB, pulse_gap=-1e-9), InvalidParameterError,
     "t1 and pulse_length must be positive, pulse_gap >= 0"),
    (lambda: _fit_initialization(synthetic_trace(0.0, 0.0)), FitError,
     "trace has no positive signal peak"),
    (lambda: CptParams(**{**CPT, "rabi_probe": -1.0}), InvalidParameterError,
     "Rabi frequencies must be >= 0"),
    (lambda: CptParams(**{**CPT, "optical_rate": 0.0}), InvalidParameterError,
     "optical_rate must be positive"),
    (lambda: CptParams(**{**CPT, "gamma_s": -1.0}), InvalidParameterError,
     "gamma_s must be >= 0"),
    (lambda: CptParams(**CPT, detuning_split="pump"), InvalidParameterError,
     "detuning_split must be 'symmetric' or 'probe'"),
    (lambda: CptParams.from_t2_star(0.0, rabi_pump=1e6, rabi_probe=1e6,
                                    optical_rate=157e6),
     InvalidParameterError, "t2_star must be positive"),
    (lambda: PleEmitter(single_line_table(), linewidth=0.0, rabi=5e6),
     InvalidParameterError, "linewidth must be positive"),
    (lambda: PleEmitter(single_line_table(), linewidth=200e6, rabi=-1.0),
     InvalidParameterError, "rabi must be >= 0"),
    (lambda: PleEmitter(single_line_table(), linewidth=200e6, rabi=5e6,
                        temperature=0.0),
     InvalidParameterError, "temperature must be positive"),
    (lambda: PleEmitter(single_line_table(), linewidth=1e151, rabi=5e6),
     DomainError, "linewidth and rabi must be at most 1e+150 Hz: the squares of "
     "their angular frequencies overflow in the line shape"),
    (lambda: simulate_t1_recovery(CALIB, [-1e-9, 1e-6]), InvalidParameterError,
     "taus must be non-negative and increasing"),
    (lambda: simulate_ple_scan([PleEmitter(single_line_table(), 200e6, 5e6)], []),
     InvalidParameterError, "frequencies must be a non-empty 1-d array"),
], ids=["spin-pump-rate", "spin-pump-samples", "spin-pump-times", "no-peak",
        "cpt-rabi", "cpt-rate", "cpt-gamma-s", "cpt-split", "cpt-t2-star",
        "ple-linewidth", "ple-rabi", "ple-temperature", "ple-rate-overflow",
        "t1-taus", "ple-frequencies"])
def test_bad_argument_is_named(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from sivcav._table import json_text
from sivcav.cqed import cooperativity_from_linewidths
from sivcav.dynamics.experiments import SpinPumpParams, simulate_spin_pumping
from sivcav.errors import FitError, InvalidParameterError
from sivcav.fitting import (
    CPT_DIP,
    EXP_DECAY,
    EXP_RECOVERY,
    LINEAR,
    LORENTZIAN,
    MODELS,
    SATURATION,
    Model,
    Spectrum,
    lm_fit,
)


def fd_jacobian(model, x, p, rel=1e-7):
    """Central finite differences, the independent check of analytic Jacobians."""
    p = np.asarray(p, dtype=float)
    out = np.zeros((len(x), len(p)))
    for k in range(len(p)):
        h = rel * max(abs(p[k]), 1e-6)
        pp, pm = p.copy(), p.copy()
        pp[k] += h
        pm[k] -= h
        out[:, k] = (model.func(x, pp) - model.func(x, pm)) / (2 * h)
    return out


MODEL_POINTS = {
    "lorentzian": (np.linspace(-5, 5, 40), [0.3, 1.7, 2.2, 0.4]),
    "exponential_decay": (np.linspace(0, 5, 40), [2.0, 1.3, 0.5]),
    "exponential_recovery": (np.linspace(0, 5, 40), [1.5, 0.8, 3.0]),
    "saturation": (np.linspace(0.2, 8, 40), [1.4, 1.1]),
    "cpt_dip": (np.linspace(-5, 5, 40), [0.2, 1.1, 0.8, 2.0]),
    "linear": (np.linspace(-3, 3, 40), [1.2, -0.4]),
}


class TestLorentzianLine:
    def test_peak_value(self):
        assert LORENTZIAN.func(5.0, (5.0, 2.0, 3.0, 0.5)) == pytest.approx(3.5)

    def test_half_maximum_points(self):
        for sign in (+1, -1):
            val = LORENTZIAN.func(5.0 + sign * 1.0, (5.0, 2.0, 3.0, 0.5))
            assert val == pytest.approx(3.0 / 2 + 0.5)

    def test_integral_matches_quadrature(self):
        # closed form: amplitude * pi * fwhm / 2 for the offset-free curve
        amplitude, fwhm = 2.3, 0.7
        num, _ = quad(lambda x: LORENTZIAN.func(x, (1.0, fwhm, amplitude, 0.0)),
                      -np.inf, np.inf)
        assert num == pytest.approx(amplitude * np.pi * fwhm / 2, rel=1e-9)


class TestJacobians:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_analytic_matches_finite_differences(self, name):
        model = MODELS[name]
        x, p0 = MODEL_POINTS[name]
        rng = np.random.default_rng(hash(name) % 2 ** 32)
        for _ in range(5):
            p = np.array(p0) * rng.uniform(0.5, 1.5, len(p0))
            analytic = model.jac(x, p)
            numeric = fd_jacobian(model, x, p)
            scale = np.max(np.abs(analytic)) + 1e-12
            assert np.max(np.abs(analytic - numeric)) < 1e-6 * scale


class TestLmCore:
    def test_p0_of_the_wrong_length_is_named(self):
        x = np.linspace(-5, 5, 50)
        spec = Spectrum(x, LORENTZIAN.func(x, [0.3, 1.7, 2.2, 0.4]))
        with pytest.raises(InvalidParameterError,
                           match="^expected 4 initial parameters$"):
            lm_fit(LORENTZIAN, spec, p0=[0.3, 1.7, 2.2])

    def test_exact_start_converges_immediately(self):
        x = np.linspace(-5, 5, 50)
        p_true = np.array([0.3, 1.7, 2.2, 0.4])
        spec = Spectrum(x, LORENTZIAN.func(x, p_true))
        result = lm_fit(LORENTZIAN, spec, p0=p_true)
        assert result.converged
        assert result.n_iterations <= 2
        assert result.residual_norm < 1e-10

    def test_stops_when_steps_reach_the_float_floor(self):
        # noise-free spin-pumping decay from the pulse-train benchmark: the
        # gradient never falls below 1e-10 of its start, but after a few
        # iterations accepted steps change the parameters by under 1e-12 of
        # their values; t1 and pulse_length are the products the config
        # loader forms from t1_ns and pulse_length_ns
        params = SpinPumpParams(rabi_freq=41e6, optical_rate=93.62e6, eta=0.1468,
                                t1=605.278 * 1e-9, background=5304659.0193,
                                pulse_length=1000.0 * 1e-9)
        trace = simulate_spin_pumping(params)[0]
        i = int(np.argmax(trace.signal))
        fit = lm_fit(EXP_DECAY, Spectrum(trace.times[i:] - trace.times[i],
                                          trace.signal[i:]))
        assert fit.converged
        assert fit.n_iterations < 20
        assert fit["timescale"] == pytest.approx(71.0e-9, rel=0.01)

    def test_linear_matches_closed_form(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0, 10, 60)
        y = 2.5 * x - 1.2 + rng.normal(0, 0.3, len(x))
        result = lm_fit(LINEAR, Spectrum(x, y))
        design = np.vstack([x, np.ones_like(x)]).T
        ols, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert result["slope"] == pytest.approx(ols[0], abs=1e-10)
        assert result["intercept"] == pytest.approx(ols[1], abs=1e-10)

    def test_residual_never_worse_than_start(self):
        x = np.linspace(-3, 3, 80)
        y = LORENTZIAN.func(x, [0.1, 0.9, 1.5, 0.2])
        p0 = np.array([0.5, 2.0, 1.0, 0.0])
        start_residual = np.linalg.norm(y - LORENTZIAN.func(x, p0))
        result = lm_fit(LORENTZIAN, Spectrum(x, y), p0=p0)
        assert result.residual_norm <= start_residual

    def test_too_few_points_rejected(self):
        with pytest.raises(FitError):
            lm_fit(LORENTZIAN, Spectrum(np.array([0.0, 1.0, 2.0]),
                                        np.array([1.0, 2.0, 1.0])))

    def test_bounds_respected(self):
        # a non-negative slope against falling data: the bound is active at
        # the optimum, the flat line through the mean
        model = replace(LINEAR, lower=(0.0, -np.inf))
        x = np.linspace(-3, 3, 40)
        y = 1.0 - 0.5 * x
        result = lm_fit(model, Spectrum(x, y), p0=np.array([0.3, 0.0]))
        assert result["slope"] == 0.0
        assert result["intercept"] == pytest.approx(np.mean(y), abs=1e-12)

    def test_singular_covariance_is_not_convergence(self):
        # a parameter the curve ignores gives the Jacobian a zero column: the
        # gradient vanishes along it, but the fit does not determine it
        idle = Model(name="linear_plus_idle",
                     param_names=("slope", "intercept", "idle"),
                     func=lambda x, p: p[0] * x + p[1],
                     jac=lambda x, p: np.column_stack(
                         [x, np.ones_like(x), np.zeros_like(x)]),
                     guess=lambda s: (1.0, 0.0, 0.5))
        x = np.linspace(-3, 3, 40)
        result = lm_fit(idle, Spectrum(x, 2.5 * x - 1.2))
        assert result["slope"] == pytest.approx(2.5, abs=1e-10)
        assert result["intercept"] == pytest.approx(-1.2, abs=1e-10)
        assert result.flags == ("singular_covariance",)
        assert not result.converged
        # the pseudo-inverse's diagonal bounds nothing: no sigma, not a zero
        assert np.isnan(result.sigmas).all()
        params = json.loads(json_text(result.as_dict()))["params"]
        assert {p["sigma"] for p in params.values()} == {None}

    def test_result_json_round_trip(self):
        x = np.linspace(-3, 3, 40)
        result = lm_fit(LORENTZIAN, Spectrum(x, LORENTZIAN.func(x, [0, 1, 1, 0])))
        payload = json.loads(json_text(result.as_dict()))
        assert payload["model"] == "lorentzian"
        assert set(payload["params"]) == {"center", "fwhm", "amplitude", "offset"}
        assert {"value", "sigma"} <= set(payload["params"]["fwhm"])
        assert isinstance(payload["converged"], bool)

    def test_overflowing_jacobian_is_a_flag_and_null_sigmas(self):
        # noise at half the span pulls the timescale to its 1e-300 bound after
        # one step; the Jacobian there overflows. That must surface as the flag
        # (no RuntimeWarning, which the test settings turn into an error) and
        # the NaN sigmas as JSON null, not as bare NaN. A NaN sigma shows no
        # amplitude apart from zero, so the timescale is unidentifiable too
        t = np.linspace(0.0, 9.14, 5)
        y = np.array([-14.07, -3.88, 5.05, -6.08, 0.076])
        result = lm_fit(EXP_RECOVERY, Spectrum(t, y))
        # the covariance of the overflowed Jacobian is not finite: singular
        assert result.flags == ("jacobian_overflow", "singular_covariance",
                                "timescale_unidentifiable")
        assert not result.converged
        assert np.all(np.isnan(result.sigmas))

        def reject(constant):
            raise AssertionError(f"non-JSON constant {constant}")

        payload = json.loads(json_text(result.as_dict()), parse_constant=reject)
        assert [v["sigma"] for v in payload["params"].values()] == [None] * 3
        assert payload["params"]["timescale"]["value"] == 1e-300

    def test_covariance_that_no_inverse_reaches_is_a_flag(self):
        # a T1 recovery of a 1e13 Hz signal over 0.3 ns: J^T J is singular,
        # and its pseudo-inverse, which the singular fit once reported as
        # its covariance, raised "SVD did not converge" out of lm_fit
        t = np.linspace(6.978305848598664e-10, 1e-09, 11)
        y = 1.0017388196343137e+13 + np.array(
            [0.0, 510415.96, 1005639.41, 1486122.54, 1952304.10, 2404609.78,
             2843452.60, 3269233.27, 3682340.59, 4083151.78, 4472032.84])
        result = lm_fit(EXP_RECOVERY, Spectrum(t, y))
        assert "singular_covariance" in result.flags
        assert not result.converged
        assert np.all(np.isnan(result.sigmas))
        assert np.all(np.isnan(result.covariance))


class TestLorentzianFit:
    def test_noiseless_recovery(self):
        x = np.linspace(406.0e12, 407.6e12, 300)
        p_true = [406.8e12, 273e9, 1.0, 0.05]
        result = lm_fit(LORENTZIAN, Spectrum(x, LORENTZIAN.func(x, p_true)))
        assert result.converged
        for name, truth in zip(("center", "fwhm", "amplitude", "offset"), p_true):
            tol = 1e-3 * abs(truth) if truth else 1e-6
            assert result[name] == pytest.approx(truth, abs=tol)

    def test_noisy_recovery_within_five_percent(self):
        rng = np.random.default_rng(99)
        x = np.linspace(-6, 6, 200)
        y = LORENTZIAN.func(x, [0.0, 2.0, 1.0, 0.1]) + rng.normal(0, 0.05, 200)
        result = lm_fit(LORENTZIAN, Spectrum(x, y))
        assert result["fwhm"] == pytest.approx(2.0, rel=0.05)

    def test_flat_spectrum_no_crash(self):
        x = np.linspace(0, 10, 50)
        result = lm_fit(LORENTZIAN, Spectrum(x, np.full(50, 3.0)))
        assert (not result.converged) or abs(result["amplitude"]) < 1e-6


class TestExponentialFit:
    def test_decay_closure_70ns(self):
        t = np.linspace(0, 1e-6, 300)
        y = EXP_DECAY.func(t, [5.0, 70e-9, 1.0])
        result = lm_fit(EXP_DECAY, Spectrum(t, y))
        assert result["timescale"] == pytest.approx(70e-9, rel=0.01)

    def test_recovery_closure_630ns(self):
        t = np.linspace(0, 4e-6, 200)
        y = EXP_RECOVERY.func(t, [2.0, 630e-9, 6.0])
        result = lm_fit(EXP_RECOVERY, Spectrum(t, y))
        assert result["timescale"] == pytest.approx(630e-9, rel=0.01)

    def test_constant_trace_flagged(self):
        t = np.linspace(0, 1, 60)
        result = lm_fit(EXP_DECAY, Spectrum(t, np.full(60, 2.0)))
        assert "timescale_unidentifiable" in result.flags


class TestSaturationFit:
    def test_noiseless_recovery(self):
        p = np.linspace(0.5, 8, 12)
        y = SATURATION.func(p, [157e6, 1.3])
        result = lm_fit(SATURATION, Spectrum(p, y))
        assert result["gamma0"] == pytest.approx(157e6, rel=0.005)
        assert result["p_sat"] == pytest.approx(1.3, rel=0.005)

    def test_single_point_unidentifiable(self):
        # two parameters need three points: lm_fit's own count guard
        for n in (1, 2):
            with pytest.raises(FitError, match="^model 'saturation' needs at least 3"):
                lm_fit(SATURATION, Spectrum(np.arange(1.0, n + 1.0), np.full(n, 2.0)))

    @pytest.mark.parametrize("first", [0.0, -0.5])
    def test_non_positive_first_linewidth_starts_inside_the_bounds(self, first):
        # noise can push the lowest-power linewidth to zero or below: the
        # guess then starts from the first positive one (it started from
        # gamma0 = 1e-300 and p_sat = 0, below the model's bound)
        p = np.linspace(0.5, 8, 12)
        y = SATURATION.func(p, [157e6, 1.3])
        y[0] = first
        p0 = SATURATION.guess(Spectrum(p, y))
        assert p0[0] == y[1]
        assert np.all(p0 >= SATURATION.lower)
        result = lm_fit(SATURATION, Spectrum(p, y))
        assert np.all(np.isfinite(result.params))

    def test_no_positive_linewidth_starts_at_the_data_scale(self):
        p = np.linspace(0.5, 8, 12)
        p0 = SATURATION.guess(Spectrum(p, np.linspace(-3.0, -1.0, 12)))
        assert list(p0) == [3.0, 8.0]
        assert lm_fit(SATURATION, Spectrum(p, np.zeros(12)))["gamma0"] == 1e-300

    def test_chain_into_cooperativity(self):
        # on-resonance saturation data extrapolates to gamma_on = 203 MHz,
        # which against gamma0 = 157 MHz gives the measured cooperativity
        p = np.linspace(0.3, 6, 10)
        y = SATURATION.func(p, [203e6, 0.9])
        fit = lm_fit(SATURATION, Spectrum(p, y))
        c, ok = cooperativity_from_linewidths(fit["gamma0"], 157e6, 0.0, 273e9)
        assert ok
        assert c == pytest.approx(0.293, abs=0.005)


class TestCptDipFit:
    def test_synthetic_dip_recovery(self):
        x = np.linspace(-12e6, 12e6, 201)
        y = CPT_DIP.func(x, [0.0, 3.3e6, 0.6, 1.0])
        result = lm_fit(CPT_DIP, Spectrum(x, y))
        assert result["dip_fwhm"] == pytest.approx(3.3e6, rel=0.02)

    def test_zero_depth_flagged(self):
        x = np.linspace(-5e6, 5e6, 101)
        result = lm_fit(CPT_DIP, Spectrum(x, np.full(101, 4.0)))
        assert "width_unidentifiable" in result.flags


class TestIdentifiability:
    # `sivcav fit` on a flat CSV checks the flags of each shape that has a
    # height; a clear shape, or a model without one, carries no flag
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_clear_shape_is_not_flagged(self, name):
        x, p = MODEL_POINTS[name]
        result = lm_fit(MODELS[name], Spectrum(x, MODELS[name].func(x, p)))
        assert result.converged
        assert result.flags == ()


MIRROR_BASES = {"cpt_dip": LORENTZIAN, "exponential_recovery": EXP_DECAY}


class TestMirrors:
    def test_mirrors_are_the_closed_forms(self):
        x = np.linspace(-5, 5, 41)
        c, w, d, b = 0.2, 1.1, 0.8, 2.0
        h = 0.5 * w
        assert np.array_equal(CPT_DIP.func(x, [c, w, d, b]),
                              b - d * h * h / ((x - c) ** 2 + h * h))
        t = np.linspace(0, 5, 41)
        assert np.array_equal(EXP_RECOVERY.func(t, [1.5, 0.8, 3.0]),
                              3.0 - 1.5 * np.exp(-t / 0.8))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), name=st.sampled_from(sorted(MIRROR_BASES)),
           upside_down=st.booleans(), noise=st.sampled_from([0.0, 1e-3, 0.05]))
    def test_mirror_fit_is_the_base_fit_of_negated_data(self, seed, name,
                                                        upside_down, noise):
        # peaks and decays, or (upside down) dips and recoveries
        rng = np.random.default_rng(seed)
        base = MIRROR_BASES[name]
        n = int(rng.integers(10, 150))
        if base is LORENTZIAN:
            x = np.linspace(-10.0, 10.0, n)
            p = [rng.uniform(-4, 4), rng.uniform(0.2, 8), rng.uniform(0.1, 10),
                 rng.uniform(-5, 5)]
        else:
            x = np.linspace(0.0, rng.uniform(1, 10), n)
            p = [rng.uniform(0.1, 10), rng.uniform(0.05, 4), rng.uniform(-5, 5)]
        y = base.func(x, p) * (-1.0 if upside_down else 1.0)
        y = y + rng.normal(0.0, noise * np.ptp(y), n)
        mirrored = lm_fit(MODELS[name], Spectrum(x, y))
        direct = lm_fit(base, Spectrum(x, -y))
        flip = np.ones(len(p))
        flip[-1] = -1.0
        # a fit that ends with 'jacobian_overflow' has NaN sigmas on both sides
        assert np.array_equal(mirrored.params, flip * direct.params, equal_nan=True)
        assert np.array_equal(mirrored.sigmas, direct.sigmas, equal_nan=True)
        assert mirrored.n_iterations == direct.n_iterations
        assert mirrored.flags == direct.flags
        assert mirrored.converged == direct.converged
        assert mirrored.residual_norm == direct.residual_norm


class TestFitProperties:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_generate_fit_regenerate_closure(self, name):
        model = MODELS[name]
        x, p_true = MODEL_POINTS[name]
        y = model.func(x, np.array(p_true))
        result = lm_fit(model, Spectrum(x, y), p0=np.array(p_true) * 1.15)
        regen = model.func(x, result.params)
        assert np.max(np.abs(regen - y)) < 1e-6 * (np.max(np.abs(y)) + 1e-12)

    def test_reparameterization_shift_invariance(self):
        x = np.linspace(-6, 6, 150)
        y = LORENTZIAN.func(x, [0.7, 1.9, 1.2, 0.2])
        r1 = lm_fit(LORENTZIAN, Spectrum(x, y))
        shift = 123.456
        r2 = lm_fit(LORENTZIAN, Spectrum(x + shift, y))
        assert r2["center"] - r1["center"] == pytest.approx(shift, rel=1e-9)
        assert r2["fwhm"] == pytest.approx(r1["fwhm"], rel=1e-9)

    def test_sigma_scaling_with_sample_size(self):
        # quadrupling n halves the standard errors (within 20%)
        def run(n, seed):
            rng = np.random.default_rng(seed)
            x = np.linspace(-6, 6, n)
            y = LORENTZIAN.func(x, [0.0, 2.0, 1.0, 0.1]) + rng.normal(0, 0.03, n)
            return lm_fit(LORENTZIAN, Spectrum(x, y))

        small = [run(100, s).sigma_of("fwhm") for s in range(8)]
        large = [run(400, s + 100).sigma_of("fwhm") for s in range(8)]
        ratio = np.mean(small) / np.mean(large)
        assert ratio == pytest.approx(2.0, rel=0.2)


class TestSpectrumValidation:
    def test_monotone_required(self):
        with pytest.raises(InvalidParameterError):
            Spectrum(np.array([0.0, 2.0, 1.0]), np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            Spectrum(np.arange(4.0), np.arange(3.0))

    def test_finite_required(self):
        with pytest.raises(InvalidParameterError):
            Spectrum(np.arange(3.0), np.array([0.0, np.nan, 1.0]))

    def test_descending_axis_allowed(self):
        Spectrum(np.array([3.0, 2.0, 1.0]), np.zeros(3))

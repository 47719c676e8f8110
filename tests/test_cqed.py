import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import c as C_LIGHT

from sivcav.cqed import (
    BAD_CAVITY_RTOL,
    cooperativity_from_linewidths,
    g_from_cooperativity,
    lorentz_filter,
    purcell_broadened_linewidth,
    q_factor,
    single_excitation_linewidth,
)
from sivcav.dynamics.engine import Decay, Drive, Level, LevelSystem, _liouvillian
from sivcav.errors import DomainError, InvalidParameterError
from sivcav.fitting import LORENTZIAN, Spectrum, lm_fit

KAPPA = 273e9
GAMMA0 = 157e6
GAMMA_ON = 203e6


class TestQFactor:
    def test_blue_detuned_cavity_q(self):
        # kappa = 273 GHz at the 737 nm zero-phonon line
        nu = C_LIGHT / 737e-9
        assert q_factor(nu, KAPPA) == pytest.approx(1490, abs=1.0)

    def test_unit_q(self):
        assert q_factor(1e14, 1e14) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            q_factor(-1.0, 2.0)
        with pytest.raises(InvalidParameterError):
            q_factor(1.0, 0.0)

    def test_q1000_spectrum_round_trip(self):
        nu0 = C_LIGHT / 737e-9
        fwhm = nu0 / 1000.0
        nu = np.linspace(nu0 - 4 * fwhm, nu0 + 4 * fwhm, 301)
        spec = Spectrum(nu, LORENTZIAN.func(nu, (nu0, fwhm, 1.0, 0.02)))
        fit = lm_fit(LORENTZIAN, spec)
        assert q_factor(fit["center"], fit["fwhm"]) == pytest.approx(1000, rel=0.01)


class TestPurcellBroadening:
    def test_on_resonance_broadening(self):
        # C = 0.293 recovers gamma_on = 203 MHz from gamma0 = 157 MHz
        out = purcell_broadened_linewidth(0.293, 0.0, KAPPA, GAMMA0)
        assert out == pytest.approx(203e6, abs=0.5e6)

    def test_zero_cooperativity(self):
        for det in (0.0, KAPPA, 17 * KAPPA):
            assert purcell_broadened_linewidth(0.0, det, KAPPA, GAMMA0) == GAMMA0

    def test_far_detuned_suppression(self):
        # Delta = 5 kappa: filter 1/101, broadening below 0.3% for C = 0.3
        out = purcell_broadened_linewidth(0.3, 5 * KAPPA, KAPPA, GAMMA0)
        assert (out - GAMMA0) / GAMMA0 == pytest.approx(0.3 / 101.0, rel=1e-12)
        assert (out - GAMMA0) / GAMMA0 < 0.003

    def test_even_and_monotone_in_detuning(self):
        dets = np.linspace(0, 10 * KAPPA, 50)
        vals = purcell_broadened_linewidth(0.5, dets, KAPPA, GAMMA0)
        neg = purcell_broadened_linewidth(0.5, -dets, KAPPA, GAMMA0)
        assert np.allclose(vals, neg, rtol=0, atol=0)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals >= GAMMA0)


def engine_rates(g, detuning, kappa, gamma0):
    """Decay rates -Re(mu)/pi, in Hz, of every Liouvillian eigenvalue mu of
    the three-level system g0, g1 (one cavity photon), e0: a drive g1-e0 of
    Rabi frequency 2g, and decays e0 -> g0 at gamma0 and g1 -> g0 at kappa.
    A coherence with g0 decays at half its population rate."""
    sys = LevelSystem([Level("g0", 0.0), Level("g1", 0.0), Level("e0", 0.0)],
                      [Drive("g1", "e0", 2.0 * g, detuning)],
                      [Decay("e0", "g0", gamma0), Decay("g1", "g0", kappa)])
    return -np.linalg.eigvals(_liouvillian(sys)).real / math.pi


class TestBadCavityOracle:
    """The closed-form Purcell broadening against the exact single-excitation
    linewidth, and that linewidth against the Lindblad engine.

    For g/kappa <= 0.1, gamma0/kappa <= 0.1 and |Delta| <= 5 kappa, the
    closed form's relative error is at most 5 (g/kappa)^2 + 2 gamma0/kappa:
    adiabatic elimination drops the emitter's own decay from the cavity
    denominator (relative gamma0/(kappa - gamma0)) and the higher orders in
    g^2 / (Delta + i (kappa - gamma0)/2) (relative 4 g^2/(kappa - gamma0)^2).
    """

    @staticmethod
    def check(g, detuning, kappa, gamma0):
        c = 4.0 * g * g / (kappa * gamma0)
        closed = purcell_broadened_linewidth(c, detuning, kappa, gamma0)
        exact = single_excitation_linewidth(g, detuning, kappa, gamma0)
        bound = 5.0 * (g / kappa) ** 2 + 2.0 * gamma0 / kappa
        assert abs(closed - exact) <= bound * exact
        rates = engine_rates(g, detuning, kappa, gamma0)
        assert np.min(np.abs(rates - exact)) <= 1e-9 * exact
        return closed, exact

    @settings(max_examples=200, deadline=None)
    @given(log_kappa=st.floats(9.0, 12.0), log_g=st.floats(-4.0, -1.0),
           log_gamma0=st.floats(-5.0, -1.0),
           detuning=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)))
    def test_bad_cavity_regime(self, log_kappa, log_g, log_gamma0, detuning):
        # every rate relative to kappa, detuning included
        kappa = 10.0 ** log_kappa
        self.check(10.0 ** log_g * kappa, detuning * kappa, kappa,
                   10.0 ** log_gamma0 * kappa)

    def test_shipped_row(self):
        # gamma0 = 157 MHz broadened to 203 MHz at kappa = 273 GHz and
        # Delta = 0.042 kappa: g/kappa = 0.0065, and the exact linewidth is
        # 203.034 MHz, 1.7e-4 above the closed form
        c, _ = cooperativity_from_linewidths(GAMMA_ON, GAMMA0, 0.042 * KAPPA, KAPPA)
        g = g_from_cooperativity(c, KAPPA, GAMMA0)
        closed, exact = self.check(g, 0.042 * KAPPA, KAPPA, GAMMA0)
        assert closed == pytest.approx(GAMMA_ON, rel=1e-12)
        assert exact == pytest.approx(203.034e6, abs=1e3)
        assert (exact - closed) / closed == pytest.approx(1.7e-4, abs=0.05e-4)

    # gamma0 = 157 MHz broadened to 203 MHz at smaller kappa: (kappa,
    # Delta/kappa, (exact - closed) / closed); `cooperativity_report` accepts
    # a miss within BAD_CAVITY_RTOL of the exact linewidth
    @pytest.mark.parametrize("kappa, det, miss, accepted", [
        (273e9, 0.042, 1.7e-4, True),
        (10e9, 0.0, 4.7e-3, True),
        (1e9, 0.0, 6.2e-2, False),
        # kappa < gamma0: the emitter-like rate, 130.4 MHz, is the faster one
        (0.1e9, 0.042, -0.357, False),
    ])
    def test_regime_table(self, kappa, det, miss, accepted):
        c, _ = cooperativity_from_linewidths(GAMMA_ON, GAMMA0, det * kappa, kappa)
        g = g_from_cooperativity(c, kappa, GAMMA0)
        closed = purcell_broadened_linewidth(c, det * kappa, kappa, GAMMA0)
        exact = single_excitation_linewidth(g, det * kappa, kappa, GAMMA0)
        assert (exact - closed) / closed == pytest.approx(miss, rel=0.05)
        assert (abs(closed - exact) <= BAD_CAVITY_RTOL * exact) == accepted

    def test_deep_bad_cavity_keeps_full_precision(self):
        # kappa / gamma0 = 1e20: an eigensolver's u * kappa would swamp
        # gamma0, while the closed form is exact to O(gamma0 / kappa)
        kappa = 1e20 * GAMMA0
        g = g_from_cooperativity(0.3, kappa, GAMMA0)
        exact = single_excitation_linewidth(g, 0.042 * kappa, kappa, GAMMA0)
        closed = purcell_broadened_linewidth(0.3, 0.042 * kappa, kappa, GAMMA0)
        assert exact == pytest.approx(closed, rel=1e-14)

    def test_cavity_root_that_underflows_leaves_gamma0(self):
        # kappa / gamma0 below the smallest subnormal: the cavity root is 0
        # in float64, and the emitter root is gamma0 itself; this divided
        # by zero
        kappa = 5e-324 * 1e9
        g = g_from_cooperativity(0.3, kappa, GAMMA0)
        assert single_excitation_linewidth(g, 0.042 * kappa, kappa,
                                           GAMMA0) == GAMMA0


class TestCooperativity:
    def test_measured_linewidth_chain(self):
        c, ok = cooperativity_from_linewidths(GAMMA_ON, GAMMA0, 0.042 * KAPPA, KAPPA)
        assert ok
        assert c == pytest.approx(0.295, abs=0.002)
        g = g_from_cooperativity(c, KAPPA, GAMMA0)
        assert g == pytest.approx(1.78e9, abs=0.03e9)

    def test_equal_linewidths_give_zero(self):
        c, ok = cooperativity_from_linewidths(GAMMA0, GAMMA0, 0.0, KAPPA)
        assert c == 0.0 and ok

    def test_negative_flagged_not_raised(self):
        c, ok = cooperativity_from_linewidths(0.9 * GAMMA0, GAMMA0, 0.0, KAPPA)
        assert c < 0 and not ok

    def test_round_trip_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = rng.uniform(0.0, 10.0)
            det = rng.uniform(-5, 5) * KAPPA
            gamma_on = purcell_broadened_linewidth(c, det, KAPPA, GAMMA0)
            c_back, _ = cooperativity_from_linewidths(gamma_on, GAMMA0, det, KAPPA)
            assert c_back == pytest.approx(c, rel=1e-12, abs=1e-12)

    def test_g_identities(self):
        assert g_from_cooperativity(0.0, KAPPA, GAMMA0) == 0.0
        assert g_from_cooperativity(4.0, 1.0, 1.0) == 1.0
        rng = np.random.default_rng(4)
        for _ in range(20):
            c = rng.uniform(0, 5)
            g = g_from_cooperativity(c, KAPPA, GAMMA0)
            assert 4 * g ** 2 / (KAPPA * GAMMA0) == pytest.approx(c, rel=1e-12)

    def test_negative_c_rejected(self):
        with pytest.raises(DomainError):
            g_from_cooperativity(-0.1, KAPPA, GAMMA0)

    def test_non_finite_results_raise(self):
        # an infinite kappa (1e300 GHz in Hz) leaves L(Delta) undefined, and
        # a finite C can still overflow g; each is a DomainError, with no
        # RuntimeWarning on the way (warnings are errors in this suite)
        with pytest.raises(DomainError, match="cooperativity is nan"):
            cooperativity_from_linewidths(GAMMA_ON, GAMMA0, 0.042 * math.inf,
                                          math.inf)
        with pytest.raises(DomainError, match="g is inf"):
            g_from_cooperativity(1e298, KAPPA, GAMMA0)


    # each argument outside its formula's domain, and the one message that
    # names it
    @pytest.mark.parametrize("func, args, error, message", [
        (lorentz_filter, (0.0, 0.0), InvalidParameterError, "kappa must be positive"),
        (purcell_broadened_linewidth, (1.0, 0.0, KAPPA, 0.0), InvalidParameterError,
         "gamma0 must be positive"),
        (purcell_broadened_linewidth, (-1.0, 0.0, KAPPA, GAMMA0), DomainError,
         "cooperativity must be non-negative"),
        (cooperativity_from_linewidths, (GAMMA_ON, -GAMMA0, 0.0, KAPPA),
         InvalidParameterError, "gamma0 must be positive"),
        (g_from_cooperativity, (1.0, KAPPA, 0.0), InvalidParameterError,
         "kappa and gamma0 must be positive"),
    ])
    def test_bad_argument_is_named(self, func, args, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            func(*args)


class TestScaleCovariance:
    def test_frequency_scaling(self):
        # scaling every frequency by s scales frequency outputs by s and
        # leaves dimensionless outputs unchanged
        s = 3.7
        c1, _ = cooperativity_from_linewidths(GAMMA_ON, GAMMA0, 0.042 * KAPPA, KAPPA)
        c2, _ = cooperativity_from_linewidths(
            s * GAMMA_ON, s * GAMMA0, s * 0.042 * KAPPA, s * KAPPA)
        assert c2 == pytest.approx(c1, rel=1e-12)
        g1 = g_from_cooperativity(c1, KAPPA, GAMMA0)
        g2 = g_from_cooperativity(c1, s * KAPPA, s * GAMMA0)
        assert g2 == pytest.approx(s * g1, rel=1e-12)
        b1 = purcell_broadened_linewidth(0.3, 2e9, KAPPA, GAMMA0)
        b2 = purcell_broadened_linewidth(0.3, s * 2e9, s * KAPPA, s * GAMMA0)
        assert b2 == pytest.approx(s * b1, rel=1e-12)

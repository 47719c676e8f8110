import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from sivcav.constants import TWO_PI
from sivcav.dynamics import (
    Decay,
    Dephasing,
    Drive,
    Level,
    LevelSystem,
    SpinPumpParams,
    Trace,
    detuned_steady_states,
    propagate,
    simulate_t1_recovery,
)
from sivcav.dynamics import engine
from sivcav.dynamics.experiments import _two_level_excited_population
from sivcav.errors import (
    DomainError,
    InvalidParameterError,
    RotatingFrameError,
    SteadyStateError,
)

OPT = 4.068e14


def two_level(rabi=0.0, detuning=0.0, decay=0.0):
    drives = (Drive("g", "e", rabi, detuning),) if rabi > 0 else ()
    decays = (Decay("e", "g", decay),) if decay > 0 else ()
    return LevelSystem((Level("g", 0.0), Level("e", OPT)), drives, decays)


def random_system(rng, n_levels):
    """Random valid driven-dissipative system with a tree of drives."""
    levels = [Level(f"l{i}", i * rng.uniform(1e9, 20e9)) for i in range(n_levels)]
    drives = []
    for i in range(1, n_levels):
        if rng.random() < 0.7:
            drives.append(Drive(f"l{rng.integers(0, i)}", f"l{i}",
                                rng.uniform(1e6, 50e6), rng.uniform(-30e6, 30e6)))
    decays = []
    for i in range(1, n_levels):
        decays.append(Decay(f"l{i}", f"l{rng.integers(0, i)}",
                            rng.uniform(1e6, 100e6)))
    dephasings = []
    if n_levels >= 2 and rng.random() < 0.5:
        dephasings.append(Dephasing("l0", "l1", rng.uniform(0, 5e6)))
    return LevelSystem(levels, tuple(drives), tuple(decays), tuple(dephasings))


def random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def diagonal_state(populations):
    return np.diag(populations).astype(complex)


def steady_state(sys):
    """Steady state of one system: the stacked kernel at its own detunings."""
    return detuned_steady_states(sys, [[d.laser_detuning for d in sys.drives]])[0]


def populations(sys, rho0, times):
    """(len(times), n) level populations from `rho0` at `times[0]`."""
    times = np.asarray(times, dtype=float)
    rhos = propagate(sys, rho0, times - times[0])
    return np.real(np.diagonal(rhos, axis1=-2, axis2=-1))


def rate_equation_populations(sys, p0, times):
    """Classical rate-equation oracle: populations only, no coherences.

    Each resonant weak drive contributes a bidirectional transfer rate
    W = (Omega^2/2) * (Gamma/2) / (delta^2 + Gamma^2/4) in angular units,
    with Gamma the total decay rate out of the upper level; decays act as
    one-way rates. Valid for Omega much smaller than Gamma.
    """
    n = sys.dim
    gamma_out = np.zeros(n)
    for d in sys.decays:
        gamma_out[sys.index(d.source)] += TWO_PI * d.rate
    a = np.zeros((n, n))
    for d in sys.decays:
        i, j = sys.index(d.source), sys.index(d.target)
        rate = TWO_PI * d.rate
        a[j, i] += rate
        a[i, i] -= rate
    for d in sys.drives:
        lo, up = sys.index(d.lower), sys.index(d.upper)
        om = TWO_PI * d.rabi_freq
        de = TWO_PI * d.laser_detuning
        g_tot = gamma_out[up]
        w = (om ** 2 / 2.0) * (g_tot / 2.0) / (de ** 2 + g_tot ** 2 / 4.0)
        a[up, lo] += w
        a[lo, lo] -= w
        a[lo, up] += w
        a[up, up] -= w
    sol = solve_ivp(lambda _t, p: a @ p, (times[0], times[-1]), p0,
                    t_eval=times, rtol=1e-10, atol=1e-14)
    return sol.y.T


class TestLiouvillian:
    def test_static_system_has_zero_superoperator(self):
        # no drives, no dissipation: every level rotates at its own energy,
        # so the rotating-frame generator vanishes identically
        sys = LevelSystem((Level("a", 1e14), Level("b", 2e14), Level("c", 0.0)))
        assert np.all(engine._liouvillian(sys) == 0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4))
    def test_trace_preservation_left_null_vector(self, seed, n):
        # vec(1)^T L = 0 lets the bordered solve replace a population row by
        # the trace row; L also maps Hermitian matrices to Hermitian ones
        rng = np.random.default_rng(seed)
        lv = engine._liouvillian(random_system(rng, n))
        norm_lv = np.linalg.norm(lv)
        eye = np.eye(n).reshape(-1)
        assert np.linalg.norm(eye @ lv) <= 1e-12 * norm_lv
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        x = x + x.conj().T
        lx = (lv @ x.reshape(-1)).reshape(n, n)
        assert (np.linalg.norm(lx - lx.conj().T)
                <= 1e-12 * norm_lv * np.linalg.norm(x))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4))
    def test_assembly_equals_per_operator_kron(self, seed, n):
        # the broadcast Kronecker products add the collapse operators in the
        # same order as the np.kron reference, so they agree bit for bit
        sys = random_system(np.random.default_rng(seed), n)
        assert np.array_equal(engine._liouvillian(sys), kron_liouvillian(sys))

    def test_two_level_decay_rate_convention(self):
        gamma = 93.6e6
        sys = two_level(decay=gamma)
        ts = np.linspace(0, 8e-9, 17)
        pops = populations(sys, diagonal_state([0, 1]), ts)
        assert np.allclose(pops[:, 1], np.exp(-TWO_PI * gamma * ts), atol=1e-8)

    def test_dephasing_rate_convention(self):
        gamma_phi = 5e6
        sys = LevelSystem((Level("a", 0.0), Level("b", 0.0)),
                          dephasings=(Dephasing("a", "b", gamma_phi),))
        rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        ts = np.linspace(0, 100e-9, 11)
        lv = engine._liouvillian(sys)
        for t in ts[1:]:
            rho_t = (expm(lv * t) @ rho0.reshape(-1)).reshape(2, 2)
            assert abs(rho_t[0, 1]) == pytest.approx(
                0.5 * np.exp(-TWO_PI * gamma_phi * t), rel=1e-8)


class TestEvolve:
    """Trajectories: the level populations along `propagate`."""

    def test_initial_time_returns_rho0(self):
        sys = two_level(rabi=10e6, decay=50e6)
        pops = populations(sys, diagonal_state([0.7, 0.3]), np.array([0.0]))
        assert np.allclose(pops[0], [0.7, 0.3])

    def test_closed_rabi_oscillation(self):
        rabi = 20e6
        sys = two_level(rabi=rabi)
        ts = np.linspace(0, 100e-9, 41)
        pops = populations(sys, diagonal_state([1, 0]), ts)
        assert np.allclose(pops[:, 1], np.sin(np.pi * rabi * ts) ** 2, atol=1e-7)

    def test_detuned_rabi_generalized_frequency(self):
        rabi, det = 12e6, 9e6
        gen = np.hypot(rabi, det)
        sys = two_level(rabi=rabi, detuning=det)
        ts = np.linspace(0, 200e-9, 81)
        pops = populations(sys, diagonal_state([1, 0]), ts)
        expected = (rabi / gen) ** 2 * np.sin(np.pi * gen * ts) ** 2
        assert np.allclose(pops[:, 1], expected, atol=1e-7)

    def test_matrix_exponential_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            sys = random_system(rng, n)
            rho0 = random_density(rng, n)
            lv = engine._liouvillian(sys)
            ts = np.linspace(0, 40e-9, 5)
            pops = populations(sys, rho0, ts)
            for k, t in enumerate(ts):
                rho_ref = (expm(lv * t) @ rho0.reshape(-1)).reshape(n, n)
                assert np.max(np.abs(pops[k] -
                                     np.real(np.diag(rho_ref)))) < 1e-6

    def test_invariants_along_trajectories(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            sys = random_system(rng, n)
            rho0 = random_density(rng, n)
            ts = np.linspace(0, 50e-9, 9)
            lv = engine._liouvillian(sys)
            for t in ts[1:]:
                rho = (expm(lv * t) @ rho0.reshape(-1)).reshape(n, n)
                assert abs(np.trace(rho).real - 1) < 1e-8
                assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
                assert np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) > -1e-9

    def test_monotone_times_required(self):
        # propagate takes durations, each state its own: a time grid that
        # runs backward from its start gives a negative one, which is rejected
        sys = two_level(decay=1e6)
        rho0 = diagonal_state([1, 0])
        with pytest.raises(InvalidParameterError,
                           match="^duration must be finite and >= 0$"):
            populations(sys, rho0, np.array([2e-9, 0.0, 1e-9]))
        unordered = propagate(sys, rho0, [0.0, 2e-9, 1e-9])
        assert np.array_equal(unordered[[0, 2, 1]],
                              propagate(sys, rho0, [0.0, 1e-9, 2e-9]))

    def test_rate_equation_oracle_weak_drive(self):
        # Omega/Gamma = 0.01: Lindblad populations match the classical rate
        # equations within 1% at all sampled times
        gamma = 100e6
        sys = LevelSystem(
            (Level("g1", 0.0), Level("g2", 6.8e9), Level("e", OPT)),
            drives=(Drive("g1", "e", 0.01 * gamma, 0.0),),
            decays=(Decay("e", "g1", 0.6 * gamma), Decay("e", "g2", 0.4 * gamma)))
        p0 = np.array([1.0, 0.0, 0.0])
        pump = (TWO_PI * 0.01 * gamma) ** 2 / (2 * TWO_PI * gamma / 2)
        ts = np.linspace(0, 3.0 / pump, 7)
        pops = populations(sys, diagonal_state(p0), ts)
        ref = rate_equation_populations(sys, p0, ts)
        assert np.max(np.abs(pops - ref)) < 0.01


def exceptional_point_system():
    # drive and dephasing tuned so that two Liouvillian eigenvectors nearly
    # coalesce: cond(V) ~ 1e8
    return LevelSystem((Level("a", 0.0), Level("b", OPT)),
                       drives=(Drive("a", "b", 1e6),),
                       dephasings=(Dephasing("a", "b", 2e6),))


def expm_states(sys, rho0, ts):
    """Reference propagation: one dense matrix exponential per time."""
    n = sys.dim
    lv = engine._liouvillian(sys)
    return np.array([(expm(lv * t) @ rho0.reshape(-1)).reshape(n, n) for t in ts])


class TestPropagate:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
           horizon=st.floats(1e-9, 1e-6))
    def test_matches_expm_and_keeps_trace_and_hermiticity(self, seed, n, horizon):
        rng = np.random.default_rng(seed)
        sys = random_system(rng, n)
        rho0 = random_density(rng, n)
        ts = np.linspace(0.0, horizon, 6)
        rhos = propagate(sys, rho0, ts)
        ref = expm_states(sys, rho0, ts)
        assert rhos.shape == (len(ts), n, n)
        assert np.max(np.abs(rhos - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)) < 1e-12
        assert np.max(np.abs(rhos - np.conj(np.transpose(rhos, (0, 2, 1))))) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
           m=st.integers(1, 5), horizon=st.floats(1e-9, 1e-6))
    def test_stack_equals_single_state_calls(self, seed, n, m, horizon):
        rng = np.random.default_rng(seed)
        sys = random_system(rng, n)
        stack = np.stack([random_density(rng, n) for _ in range(m)])
        ts = np.linspace(0.0, horizon, 6)
        rhos = propagate(sys, stack, ts)
        assert rhos.shape == (m, len(ts), n, n)
        for rho0, batched in zip(stack, rhos):
            single = propagate(sys, rho0, ts)
            ref = expm_states(sys, rho0, ts)
            bound = 1e-12 * np.max(np.abs(ref))
            assert np.max(np.abs(single - ref)) <= bound
            # each row of the stack takes the single-state product itself
            assert np.array_equal(batched, single)

    def test_negative_duration_rejected(self):
        sys = two_level(decay=1e6)
        rho0 = diagonal_state([1, 0])
        for bad in ([-1e-9], [0.0, np.nan], [np.inf]):
            with pytest.raises(InvalidParameterError,
                               match="^duration must be finite and >= 0$"):
                propagate(sys, rho0, bad)

    @pytest.mark.parametrize("seed", range(20))
    def test_norm_is_the_liouvillians(self, seed):
        sys = random_system(np.random.default_rng(seed), 4)
        assert engine._norm1(sys) == pytest.approx(
            np.linalg.norm(engine._liouvillian(sys), 1), rel=1e-14)

    def test_rate_times_time_beyond_float64_is_a_domain_error(self, monkeypatch):
        # ||L||_1 = 2 (2 pi gamma) for a decay at gamma: past the limit the
        # error names the product, before any eigendecomposition
        sys = two_level(decay=1e6)
        limit = engine._MAX_NORM_TIME
        t_max = limit / (4.0 * math.pi * 1e6)
        rho0 = diagonal_state([0, 1])
        assert np.isfinite(propagate(sys, rho0, [0.0, 0.999 * t_max])).all()
        sys = two_level(decay=1e6)
        monkeypatch.setattr(np.linalg, "eig", None)
        with pytest.raises(DomainError, match=r"^\|\|L\|\|_1 \* t = 9\.01e\+07 exceeds "
                                              r"9\.01e\+07, beyond which float64 roundoff"):
            propagate(sys, rho0, [0.0, 1.0001 * t_max])

    def test_rho0_of_wrong_shape_rejected(self):
        sys = two_level(decay=1e6)
        for bad in (np.eye(3) / 3, np.ones(4) / 2, np.zeros((2, 2, 3)),
                    np.zeros((1, 1, 2, 2))):
            with pytest.raises(InvalidParameterError, match="^rho0 must have shape"):
                propagate(sys, bad, [1e-9])

    def test_exceptional_point_falls_back_to_expm(self, monkeypatch):
        sys = exceptional_point_system()
        lv = engine._liouvillian(sys)
        assert np.linalg.cond(np.linalg.eig(lv)[1]) > engine._EIGENBASIS_CONDITION_LIMIT
        calls = []

        def counting_expm(a):
            calls.append(a)
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
        rho0 = diagonal_state([1, 0])
        ts = np.linspace(0.0, 1e-6, 5)
        rhos = propagate(sys, rho0, ts)
        assert len(calls) == len(ts)
        ref = expm_states(sys, rho0, ts)
        assert np.max(np.abs(rhos - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_exceptional_point_stack_takes_one_expm_per_time(self, monkeypatch):
        sys = exceptional_point_system()
        calls = []

        def counting_expm(a):
            calls.append(a)
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
        stack = np.stack([diagonal_state([1, 0]), diagonal_state([0, 1]),
                          np.full((2, 2), 0.5, dtype=complex)])
        ts = np.linspace(0.0, 1e-6, 5)
        rhos = propagate(sys, stack, ts)
        assert sys._eigenbasis == ()
        assert len(calls) == len(ts)
        for rho0, batched in zip(stack, rhos):
            ref = expm_states(sys, rho0, ts)
            assert np.max(np.abs(batched - ref)) <= 1e-12 * np.max(np.abs(ref))


    def test_eigenbasis_computed_once_per_system(self, monkeypatch):
        calls = []
        eig = np.linalg.eig

        def counting_eig(a):
            calls.append(a)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        p = SpinPumpParams(rabi_freq=20e6, optical_rate=90e6, eta=0.1, t1=1e-6,
                           samples_per_pulse=40)
        simulate_t1_recovery(p, [0.0, 1e-7, 1e-6, 5e-6])
        assert len(calls) == 2  # laser-on and dark system

    def test_liouvillian_built_once_per_system(self, monkeypatch):
        # the cached eigenbasis needs L only for its one eigendecomposition
        systems = []
        build = engine._liouvillian

        def counting_build(sys):
            systems.append(sys)
            return build(sys)

        monkeypatch.setattr(engine, "_liouvillian", counting_build)
        p = SpinPumpParams(rabi_freq=20e6, optical_rate=90e6, eta=0.1, t1=1e-6,
                           samples_per_pulse=40)
        simulate_t1_recovery(p, [0.0, 1e-7, 1e-6, 5e-6])
        assert len(systems) == 2  # laser-on and dark system
        assert len({id(sys) for sys in systems}) == 2

    def test_cached_eigenbasis_is_read_only_and_reused(self, monkeypatch):
        sys = two_level(rabi=20e6, decay=40e6)
        rho0 = diagonal_state([1, 0])
        propagate(sys, rho0, [1e-7])
        basis = sys._eigenbasis
        assert len(basis) == 2
        for part in basis:
            with pytest.raises(ValueError):
                part[0] = 0.0
        monkeypatch.setattr(np.linalg, "eig", None)  # a second eig would fail
        propagate(sys, rho0, np.linspace(0.0, 1e-7, 5))
        assert sys._eigenbasis is basis

    def test_exceptional_point_system_keeps_expm(self, monkeypatch):
        sys = exceptional_point_system()
        calls = []

        def counting_expm(a):
            calls.append(a)
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
        rho0 = diagonal_state([1, 0])
        ts = np.linspace(0.0, 1e-6, 5)
        pops = populations(sys, rho0, ts)
        populations(sys, rho0, ts)
        assert sys._eigenbasis == ()
        assert len(calls) == 2 * len(ts)
        lv = engine._liouvillian(sys)
        ref = np.array([np.real(np.diag((expm(lv * t) @ rho0.reshape(-1))
                                        .reshape(2, 2))) for t in ts])
        assert np.max(np.abs(pops - ref)) <= 1e-12


class TestSteadyState:
    def test_pure_ground_without_drive(self):
        sys = LevelSystem((Level("g", 0.0), Level("e", OPT)),
                          decays=(Decay("e", "g", 50e6),))
        rho = steady_state(sys)
        assert np.allclose(np.diag(rho).real, [1.0, 0.0], atol=1e-10)

    def test_two_level_saturation_formula(self):
        rabi, det, gamma = 30e6, 5e6, 93.6e6
        sys = two_level(rabi=rabi, detuning=det, decay=gamma)
        rho = steady_state(sys)
        om, de, ga = TWO_PI * rabi, TWO_PI * det, TWO_PI * gamma
        expected = 0.25 * om ** 2 / (de ** 2 + om ** 2 / 2 + ga ** 2 / 4)
        assert rho[1, 1].real == pytest.approx(expected, rel=1e-9)

    def test_matches_long_time_integration(self):
        sys = LevelSystem(
            (Level("g1", 0.0), Level("g2", 6.8e9), Level("e", OPT)),
            drives=(Drive("g1", "e", 20e6, 0.0), Drive("g2", "e", 15e6, 2e6)),
            decays=(Decay("e", "g1", 40e6), Decay("e", "g2", 40e6)),
            dephasings=(Dephasing("g1", "g2", 1e6),))
        rho_ss = steady_state(sys)
        slowest = 1.0 / (TWO_PI * 1e6)
        rho_long = propagate(sys, diagonal_state([0.2, 0.8, 0]), [50.0 * slowest])[0]
        assert np.max(np.abs(rho_ss - rho_long)) < 1e-6

    def test_initial_state_independence(self):
        rng = np.random.default_rng(3)
        sys = LevelSystem(
            (Level("g1", 0.0), Level("g2", 6.8e9), Level("e", OPT)),
            drives=(Drive("g1", "e", 25e6, 1e6), Drive("g2", "e", 10e6, -3e6)),
            decays=(Decay("e", "g1", 50e6), Decay("e", "g2", 50e6)),
            dephasings=(Dephasing("g1", "g2", 2e6),))
        rho_a, rho_b = propagate(sys, np.stack([random_density(rng, 3),
                                                random_density(rng, 3)]),
                                 [3e-5])[:, 0]
        assert np.max(np.abs(rho_a - rho_b)) < 1e-7

    def test_degenerate_null_space_detected(self):
        # two disconnected two-level decay systems: steady state not unique
        sys = LevelSystem(
            (Level("g1", 0.0), Level("e1", OPT), Level("g2", 1e9),
             Level("e2", OPT + 1e9)),
            decays=(Decay("e1", "g1", 50e6), Decay("e2", "g2", 50e6)))
        with pytest.raises(SteadyStateError):
            steady_state(sys)


def kron_liouvillian(sys):
    """Reference assembly: one dense np.kron product per term."""
    n = sys.dim
    h = sys.hamiltonian()
    eye = np.eye(n, dtype=complex)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in sys.collapse_operators():
        cdc = c.conj().T @ c
        lv += np.kron(c, c.conj())
        lv -= 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return lv


def null_vector_state(sys):
    """Reference steady state: per-system SVD null vector, trace-normalized."""
    n = sys.dim
    _u, _s, vh = np.linalg.svd(kron_liouvillian(sys))
    rho = vh[-1].conj().reshape(n, n)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def disconnected_four_level():
    # two independent two-level decay systems: both ground populations and
    # their coherences are stationary, a null space of dimension 4
    return LevelSystem(
        (Level("g1", 0.0), Level("e1", OPT), Level("g2", 1e9),
         Level("e2", OPT + 1e9)),
        decays=(Decay("e1", "g1", 50e6), Decay("e2", "g2", 50e6)))


class TestSteadyStates:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), v_type=st.booleans(),
           count=st.integers(1, 8))
    def test_stack_matches_per_system_null_vectors(self, seed, v_type, count):
        rng = np.random.default_rng(seed)
        template = v_template(rng) if v_type else lambda_template(rng)
        detunings = rng.uniform(-50e6, 50e6, size=(count, 2))
        rhos = detuned_steady_states(template, detunings)
        n = template.dim
        assert rhos.shape == (count, n, n)
        for row, rho in zip(detunings, rhos):
            sys = with_detunings(template, row)
            ref = null_vector_state(sys)
            assert np.max(np.abs(rho - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-9
            lv = kron_liouvillian(sys)
            assert (np.linalg.norm(lv @ rho.reshape(-1))
                    <= 1e-10 * np.linalg.norm(lv))

    def test_single_system_is_one_row_of_the_stack(self):
        rng = np.random.default_rng(11)
        template = v_template(rng)
        rows = rng.uniform(-50e6, 50e6, size=(4, 2))
        rhos = detuned_steady_states(template, rows)
        for row, rho in zip(rows, rhos):
            sys = with_detunings(template, row)
            assert np.array_equal(steady_state(sys), rho)
            assert np.array_equal(engine._liouvillian(sys), kron_liouvillian(sys))

    def test_degenerate_system_inside_a_stack(self):
        message = "^steady state is not unique: null space dimension 4$"
        with pytest.raises(SteadyStateError, match=message):
            steady_state(disconnected_four_level())
        with pytest.raises(SteadyStateError, match=message):
            detuned_steady_states(disconnected_four_level(), np.zeros((3, 0)))

    @pytest.mark.parametrize("rabi, decay", [(1e300, 50e6), (10e6, 1e-300)])
    def test_rates_beyond_float64_are_named_not_counted(self, rabi, decay):
        # a drive 1e292 times its decay, or a decay 1e307 times slower than
        # its drive, read as a null space of dimension 2
        template = two_level(rabi=rabi, decay=decay)
        lo, hi = sorted([(decay, "decay rate e->g"), (rabi, "Rabi frequency g-e")])
        message = (f"rates span {hi[0] / lo[0]:.3g}, from the {lo[1]} at "
                   f"{lo[0]:.3g} Hz to the {hi[1]} at {hi[0]:.3g} Hz: beyond "
                   "1e+10, float64 cannot resolve the steady state")
        with pytest.raises(DomainError) as exc:
            detuned_steady_states(template, [[1e6]])
        assert str(exc.value) == message

    def test_first_failing_system_raises(self):
        static = LevelSystem(tuple(Level(f"l{i}", i * 1e9) for i in range(4)))
        with pytest.raises(SteadyStateError, match="^zero Liouvillian"):
            steady_state(static)
        with pytest.raises(SteadyStateError, match="^steady state is not unique"):
            steady_state(disconnected_four_level())

    @pytest.mark.parametrize("gamma", [1e6, 1.0, 0.1, 1e-2, 1e-3])
    def test_two_level_oracle_down_to_slow_decay(self, gamma):
        # cond(L) grows as drive over decay, to 2e11 at 1 mHz, but the steady
        # state stays unique
        rho = steady_state(two_level(rabi=100e6, detuning=3e6, decay=gamma))
        assert rho[1, 1].real == pytest.approx(
            _two_level_excited_population(100e6, 3e6, gamma), rel=1e-12)

    def test_weakly_coupled_ground_states_are_unique(self):
        # a 1 mHz ground exchange both ways joins the two decay systems
        base = disconnected_four_level()
        sys = LevelSystem(base.levels, decays=base.decays + (
            Decay("g1", "g2", 1e-3), Decay("g2", "g1", 1e-3)))
        rho = steady_state(sys)
        assert np.max(np.abs(rho - np.diag([0.5, 0.0, 0.5, 0.0]))) <= 1e-12

    def test_liouvillian_assembled_once_per_system(self, monkeypatch):
        sys = two_level(rabi=20e6, decay=40e6)
        calls = []
        hamiltonian = sys.hamiltonian

        def counting_hamiltonian():
            calls.append(1)
            return hamiltonian()

        monkeypatch.setattr(sys, "hamiltonian", counting_hamiltonian)
        rho0 = diagonal_state([1, 0])
        ts = np.linspace(0.0, 1e-7, 5)
        propagate(sys, rho0, ts)
        propagate(sys, np.stack([rho0, rho0]), ts)
        steady_state(sys)
        detuned_steady_states(sys, [[0.0], [3e6]])
        assert len(calls) == 1

    def test_cached_liouvillian_is_read_only(self):
        # the one cache is the detuning-free L0: a resonant system's
        # Liouvillian equals it, a detuned one differs on the diagonal only
        sys = two_level(rabi=20e6, detuning=3e6, decay=40e6)
        propagate(sys, diagonal_state([1, 0]), [1e-7])
        cached = sys._l0
        lv = engine._liouvillian(sys)
        off = ~np.eye(4, dtype=bool)
        assert np.array_equal(cached[off], lv[off])
        assert not np.array_equal(np.diag(cached), np.diag(lv))
        resonant = two_level(rabi=20e6, decay=40e6)
        assert np.array_equal(engine._liouvillian(resonant),
                              engine._frame_free_liouvillian(resonant))
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0


def lambda_template(rng):
    """Lambda system g1, g2 -> e with random drives, decays and dephasing."""
    gamma = rng.uniform(1e6, 100e6)
    branch = rng.uniform(0.1, 0.9)
    return LevelSystem(
        (Level("g1", 0.0), Level("g2", rng.uniform(1e9, 20e9)), Level("e", OPT)),
        drives=(Drive("g1", "e", rng.uniform(1e6, 50e6), rng.uniform(-30e6, 30e6)),
                Drive("g2", "e", rng.uniform(1e6, 50e6), rng.uniform(-30e6, 30e6))),
        decays=(Decay("e", "g1", branch * gamma), Decay("e", "g2", (1 - branch) * gamma)),
        dephasings=(Dephasing("g1", "g2", rng.uniform(0, 5e6)),))


def v_template(rng):
    """V system g -> e1, e2 with a metastable shelf m that relaxes to g."""
    return LevelSystem(
        (Level("g", 0.0), Level("e1", OPT), Level("e2", OPT + 2e9),
         Level("m", rng.uniform(1e9, 20e9))),
        drives=(Drive("g", "e1", rng.uniform(1e6, 50e6)),
                Drive("g", "e2", rng.uniform(1e6, 50e6))),
        decays=(Decay("e1", "g", rng.uniform(1e6, 100e6)),
                Decay("e2", "g", rng.uniform(1e6, 100e6)),
                Decay("e1", "m", rng.uniform(1e5, 10e6)),
                Decay("m", "g", rng.uniform(1e5, 10e6), radiative=False)))


def ladder_template(rng):
    """Ladder g -> e1 -> e2 with a cascade decay and a g-e2 dephasing."""
    return LevelSystem(
        (Level("g", 0.0), Level("e1", OPT), Level("e2", 2 * OPT)),
        drives=(Drive("g", "e1", rng.uniform(1e6, 50e6), rng.uniform(-30e6, 30e6)),
                Drive("e1", "e2", rng.uniform(1e6, 50e6), rng.uniform(-30e6, 30e6))),
        decays=(Decay("e1", "g", rng.uniform(1e6, 100e6)),
                Decay("e2", "e1", rng.uniform(1e6, 100e6))),
        dephasings=(Dephasing("g", "e2", rng.uniform(0, 5e6)),))


def with_detunings(template, row):
    return LevelSystem(template.levels,
                       tuple(Drive(d.lower, d.upper, d.rabi_freq, float(x))
                             for d, x in zip(template.drives, row)),
                       template.decays, template.dephasings)


class TestDetunedSteadyStates:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), v_type=st.booleans(),
           count=st.integers(1, 8))
    def test_matches_per_point_systems(self, seed, v_type, count):
        rng = np.random.default_rng(seed)
        template = v_template(rng) if v_type else lambda_template(rng)
        detunings = rng.uniform(-50e6, 50e6, size=(count, 2))
        rhos = detuned_steady_states(template, detunings)
        ref = np.stack([steady_state(with_detunings(template, row))
                        for row in detunings])
        assert rhos.shape == ref.shape
        assert np.max(np.abs(rhos - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_row_equals_its_system_bit_for_bit(self):
        # the template's own detunings are replaced, not added to
        template = lambda_template(np.random.default_rng(1))
        rows = [[3e6, -1e6], [0.0, 2.5e6]]
        ref = [steady_state(with_detunings(template, r)) for r in rows]
        assert np.array_equal(detuned_steady_states(template, rows), np.stack(ref))

    def test_non_finite_detuning_rejected(self):
        template = lambda_template(np.random.default_rng(2))
        with pytest.raises(InvalidParameterError, match="^laser_detuning must be finite$"):
            detuned_steady_states(template, [[1e6, 0.0], [np.nan, 0.0]])

    def test_bad_shape_rejected(self):
        template = lambda_template(np.random.default_rng(3))
        for bad in ([1e6, 0.0], np.zeros((0, 2)), np.zeros((3, 3))):
            with pytest.raises(InvalidParameterError):
                detuned_steady_states(template, bad)

    def test_first_failing_row_raises_the_per_point_message(self):
        # row 1 is detuned so far (1e30 Hz) that its bordered matrix is
        # numerically singular; rows 0 and 2 solve
        template = two_level(rabi=10e6, decay=50e6)
        rows = [[1e6], [1e30], [2e6]]
        with pytest.raises(SteadyStateError) as per_point:
            for r in rows:
                steady_state(with_detunings(template, r))
        assert str(per_point.value).startswith("steady state is not unique")
        with pytest.raises(SteadyStateError) as stacked:
            detuned_steady_states(template, rows)
        assert str(stacked.value) == str(per_point.value)

    def test_zero_liouvillian_row_raises_first(self):
        # no coupling and no dissipation: every row is degenerate, and a zero
        # detuning row has a zero Liouvillian
        template = LevelSystem((Level("g", 0.0), Level("e", OPT)),
                               drives=(Drive("g", "e", 0.0),))
        with pytest.raises(SteadyStateError, match="^zero Liouvillian"):
            detuned_steady_states(template, [[0.0], [1e6]])
        with pytest.raises(SteadyStateError,
                           match="^steady state is not unique: null space dimension 2$"):
            detuned_steady_states(template, [[1e6], [0.0]])


TEMPLATES = st.sampled_from([lambda_template, v_template, ladder_template])


class TestCrossKernel:
    """`propagate` and `detuned_steady_states` agree over random lambda, V
    and ladder systems, from random full-rank states."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           template=TEMPLATES)
    def test_long_time_propagation_reaches_the_steady_state(self, seed, template):
        rng = np.random.default_rng(seed)
        sys = template(rng)
        lam = np.linalg.eigvals(engine._liouvillian(sys))
        slowest = np.sort(np.abs(lam.real))[1]  # the slowest decaying mode, 1/s
        rho = propagate(sys, random_density(rng, sys.dim), [60.0 / slowest])[0]
        assert np.max(np.abs(rho - steady_state(sys))) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           template=TEMPLATES,
           t1=st.floats(0.0, 1e-6), t2=st.floats(0.0, 1e-6))
    def test_propagation_is_a_semigroup(self, seed, template, t1, t2):
        rng = np.random.default_rng(seed)
        sys = template(rng)
        rho0 = random_density(rng, sys.dim)
        direct = propagate(sys, rho0, [t1 + t2])[0]
        stepped = propagate(sys, propagate(sys, rho0, [t1])[0], [t2])[0]
        assert np.max(np.abs(direct - stepped)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           template=TEMPLATES,
           horizon=st.floats(1e-9, 1e-5))
    def test_propagated_states_stay_positive(self, seed, template, horizon):
        rng = np.random.default_rng(seed)
        sys = template(rng)
        rhos = propagate(sys, random_density(rng, sys.dim), np.linspace(0.0, horizon, 9))
        assert np.min(np.linalg.eigvalsh(rhos)) >= -1e-9


def cond_solve_steady_states(lv):
    """Reference bordered kernel: a 1-norm `np.linalg.cond` pass, then a
    batched `solve` of the rows it finds unique; same checks and messages."""
    n = math.isqrt(lv.shape[-1])
    bordered = lv.copy()
    bordered[:, 0] = np.eye(n).reshape(-1)
    unique = np.linalg.cond(bordered, 1) < engine._BORDERED_CONDITION_LIMIT
    rho = np.zeros((len(lv), n * n), dtype=complex)
    rho[unique] = np.linalg.solve(bordered[unique], np.eye(n * n)[0])
    rho = rho.reshape(-1, n, n)
    rho = 0.5 * (rho + np.conj(np.swapaxes(rho, 1, 2)))
    w_min = np.linalg.eigvalsh(rho).min(axis=1)
    for i in np.flatnonzero(~unique | (w_min < -1e-9)):
        if not np.any(lv[i]):
            raise SteadyStateError("zero Liouvillian has no unique steady state")
        if not unique[i]:
            s = np.linalg.svd(lv[i], compute_uv=False)
            raise SteadyStateError("steady state is not unique: null space "
                                   f"dimension {np.sum(s < 1e-10 * s[0])}")
        raise SteadyStateError(f"steady state not positive (min eig {w_min[i]:.2e})")
    return rho


def outcome(kernel, lv):
    try:
        return kernel(lv)
    except SteadyStateError as exc:
        return str(exc)


class TestBorderedKernel:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), v_type=st.booleans(),
           count=st.integers(1, 8))
    def test_one_inverse_matches_cond_and_solve(self, seed, v_type, count):
        rng = np.random.default_rng(seed)
        template = v_template(rng) if v_type else lambda_template(rng)
        # 100 MHz drives against decays and dephasing 1e10 times slower:
        # cond(B) above 1e10 but under the limit, so still unique
        slow = LevelSystem(
            template.levels,
            tuple(replace(d, rabi_freq=100e6) for d in template.drives),
            tuple(replace(d, rate=1e-10 * d.rate) for d in template.decays),
            tuple(replace(d, rate=1e-10 * d.rate) for d in template.dephasings))
        bordered = engine._liouvillian(slow).copy()
        bordered[0] = np.eye(slow.dim).reshape(-1)
        assert 1e10 < np.linalg.cond(bordered, 1) < engine._BORDERED_CONDITION_LIMIT
        detunings = rng.uniform(-50e6, 50e6, size=(count, 2))
        rows = np.concatenate([engine._detuned_liouvillians(template, detunings),
                               engine._liouvillian(slow)[None]])
        rows = rows[rng.permutation(len(rows))]
        rho = engine._bordered_steady_states(rows)
        assert np.array_equal(rho, cond_solve_steady_states(rows))
        # a zero row makes the batched inverse raise; every other row keeps
        # its inverse, so the zero row is the first and only failure
        with_zero = np.insert(rows, rng.integers(0, len(rows) + 1), 0.0, axis=0)
        message = outcome(engine._bordered_steady_states, with_zero)
        assert message == outcome(cond_solve_steady_states, with_zero)
        assert message == "zero Liouvillian has no unique steady state"


class TestRotatingFrame:
    def test_shifts_are_exact_sums_of_detunings(self):
        # optical-scale level energies no longer round the shifts
        d_pump, d_probe = 1e6 + 0.3, -2e6 + 0.7
        sys = LevelSystem(
            (Level("g1", 0.0), Level("g2", 6.8e9), Level("e", 4.068e14)),
            drives=(Drive("g1", "e", 1e6, d_pump), Drive("g2", "e", 1e6, d_probe)))
        shifts = sys.rotating_frame_shifts()
        assert shifts[sys.index("g1")] == 0.0
        assert shifts[sys.index("e")] == -d_pump
        assert shifts[sys.index("g2")] == d_probe - d_pump

    def test_consistent_lambda_system(self):
        sys = LevelSystem(
            (Level("g1", 0.0), Level("g2", 6.8e9), Level("e", OPT)),
            drives=(Drive("g1", "e", 1e6, 1e6), Drive("g2", "e", 1e6, -2e6)))
        shifts = sys.rotating_frame_shifts()
        assert shifts[sys.index("g1")] == 0.0
        assert shifts[sys.index("e")] == pytest.approx(-1e6, abs=1e-3)
        assert shifts[sys.index("g2")] == pytest.approx(-3e6, abs=1e-3)

    def test_inconsistent_loop_rejected(self):
        # triangle of drives whose laser frequencies cannot close
        with pytest.raises(RotatingFrameError,
                           match="^drives close a loop through 'b': "):
            LevelSystem(
                (Level("a", 0.0), Level("b", 1e9), Level("c", 3e9)),
                drives=(Drive("a", "b", 1e6, 0.0), Drive("b", "c", 1e6, 0.0),
                        Drive("a", "c", 1e6, 5e6)))

    @pytest.mark.parametrize("drives", [
        # a triangle whose detunings close: d_ac = d_ab + d_bc
        (Drive("a", "b", 1e6, 2e6), Drive("b", "c", 1e6, 3e6),
         Drive("a", "c", 1e6, 5e6)),
        # two lasers on one line, at the same detuning
        (Drive("a", "b", 1e6, 2e6), Drive("a", "b", 3e6, 2e6)),
    ])
    def test_consistent_loop_rejected(self, drives):
        # every system here is a tree of optical drives: a loop is rejected
        # at construction, whatever its detunings
        with pytest.raises(RotatingFrameError,
                           match="^drives close a loop through 'b': "):
            LevelSystem((Level("a", 0.0), Level("b", 1e9), Level("c", 3e9)),
                        drives=drives)


class TestValidation:
    def test_density_state_invariants(self):
        for bad, message in (
                (np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex), "be Hermitian"),
                (diagonal_state([0.7, 0.7]), "have unit trace"),
                (diagonal_state([1.5, -0.5]), "be positive"),
                (diagonal_state([np.nan, 1.0]), "be finite")):
            with pytest.raises(InvalidParameterError, match=f"^rho must {message}"):
                engine._check_density(bad)
        engine._check_density(diagonal_state([0.7, 0.3]))

    # each fault of a level system, on the levels a and b unless it names
    # its own, and the one message that names it
    @pytest.mark.parametrize("parts, message", [
        ({"levels": ()}, "LevelSystem needs at least one level"),
        ({"levels": (Level("a", 0.0), Level("a", 1.0))},
         "level labels must be unique"),
        ({"levels": (Level("a", 0.0), Level("b", math.inf))},
         "energy of level b must be finite"),
        ({"drives": (Drive("a", "a", 1e6),)}, "drive endpoints must be distinct"),
        ({"drives": (Drive("a", "c", 1e6),)},
         "drive references unknown level: Drive(lower='a', upper='c', "
         "rabi_freq=1000000.0, laser_detuning=0.0)"),
        ({"drives": (Drive("a", "b", -1.0),)},
         "drive rabi_freq must be finite and >= 0"),
        ({"drives": (Drive("a", "b", math.inf),)},
         "drive rabi_freq must be finite and >= 0"),
        ({"drives": (Drive("a", "b", 1e6, math.nan),)},
         "laser_detuning must be finite"),
        ({"decays": (Decay("b", "b", 1.0),)}, "decay source and target must differ"),
        ({"decays": (Decay("a", "c", 1.0),)},
         "decay references unknown level: Decay(source='a', target='c', "
         "rate=1.0, radiative=True)"),
        ({"decays": (Decay("a", "b", -1.0),)}, "decay rate must be finite and >= 0"),
        ({"dephasings": (Dephasing("a", "a", 1.0),)},
         "dephasing pair must be distinct"),
        ({"dephasings": (Dephasing("c", "b", 1.0),)},
         "dephasing references unknown level: Dephasing(level_a='c', "
         "level_b='b', rate=1.0)"),
        ({"dephasings": (Dephasing("a", "b", math.nan),)},
         "dephasing rate must be finite and >= 0"),
    ])
    def test_system_validation(self, parts, message):
        parts = {"levels": (Level("a", 0.0), Level("b", 1e9)), **parts}
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            LevelSystem(**parts)

    def test_state_that_is_not_positive_is_named(self):
        # no Lindblad generator has one; this bordered system (trace row,
        # coherences 0, rho_00 + 3 rho_11 = 0) solves to diag(1.5, -0.5)
        lv = np.array([[[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 3]]])
        with pytest.raises(SteadyStateError,
                           match=r"^steady state not positive \(min eig -5.00e-01\)$"):
            engine._bordered_steady_states(lv)

    def test_overflowing_rate_is_a_domain_error(self):
        # a decay rate of 8e307 Hz is finite, but 2 pi times it is not; both
        # kernels stop at the assembly of L0, before any eig, inv or svd
        sys = two_level(decay=8e307)
        message = r"^Liouvillian overflows float64: decay rate e->g is 8e\+307 Hz$"
        with pytest.raises(DomainError, match=message):
            detuned_steady_states(sys, [[]])
        with pytest.raises(DomainError, match=message):
            propagate(sys, diagonal_state([1, 0]), [1e-9])

    def test_trace_type_length_check(self):
        with pytest.raises(InvalidParameterError):
            Trace(np.array([0.0, 1.0]), np.array([1.0]), np.zeros((2, 2)))

    def test_trace_populations_must_sum_to_one(self):
        pops = np.array([[0.5, 0.5], [0.5, 0.5 + 2e-8]])
        with pytest.raises(InvalidParameterError, match="^trace populations must "
                                                        "sum to 1 within 1e-8 at every time$"):
            Trace(np.array([0.0, 1.0]), np.ones(2), pops)

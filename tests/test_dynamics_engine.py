import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from sivcav.constants import TWO_PI
from sivcav.dynamics import (
    Decay,
    DensityState,
    Dephasing,
    Drive,
    Level,
    LevelSystem,
    Trace,
    build_liouvillian,
    evolve,
    final_state,
    propagate,
    steady_state,
    steady_states,
)
from sivcav.dynamics import engine
from sivcav.dynamics.experiments import _two_level_excited_population
from sivcav.errors import (
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


def scan_variant(rng, base):
    """`base` with redrawn drive strengths and detunings, like one scan point.

    Its decays and dephasings are either kept or redrawn, so a stack of
    variants mixes shared and distinct dissipators.
    """
    drives = tuple(Drive(d.lower, d.upper, rng.uniform(1e6, 50e6),
                         rng.uniform(-30e6, 30e6)) for d in base.drives)
    decays = base.decays
    if rng.random() < 0.3:
        decays = random_system(rng, base.dim).decays
    dephasings = base.dephasings
    if rng.random() < 0.3:
        dephasings = (Dephasing("l0", "l1", rng.uniform(0, 5e6)),)
    return LevelSystem(base.levels, drives, decays, dephasings)


def random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return DensityState(rho / np.trace(rho).real)


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
        assert np.all(build_liouvillian(sys) == 0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4))
    def test_trace_preservation_left_null_vector(self, seed, n):
        # vec(1)^T L = 0 lets steady_states replace a population row by the
        # trace row; L also maps Hermitian matrices to Hermitian ones
        rng = np.random.default_rng(seed)
        lv = build_liouvillian(random_system(rng, n))
        norm_lv = np.linalg.norm(lv)
        eye = np.eye(n).reshape(-1)
        assert np.linalg.norm(eye @ lv) <= 1e-12 * norm_lv
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        x = x + x.conj().T
        lx = (lv @ x.reshape(-1)).reshape(n, n)
        assert (np.linalg.norm(lx - lx.conj().T)
                <= 1e-12 * norm_lv * np.linalg.norm(x))

    def test_two_level_decay_rate_convention(self):
        gamma = 93.6e6
        sys = two_level(decay=gamma)
        ts = np.linspace(0, 8e-9, 17)
        tr = evolve(sys, DensityState.from_populations([0, 1]), ts)
        assert np.allclose(tr.populations[:, 1], np.exp(-TWO_PI * gamma * ts),
                           atol=1e-8)

    def test_dephasing_rate_convention(self):
        gamma_phi = 5e6
        sys = LevelSystem((Level("a", 0.0), Level("b", 0.0)),
                          dephasings=(Dephasing("a", "b", gamma_phi),))
        rho0 = DensityState(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        ts = np.linspace(0, 100e-9, 11)
        lv = build_liouvillian(sys)
        for t in ts[1:]:
            rho_t = (expm(lv * t) @ rho0.rho.reshape(-1)).reshape(2, 2)
            assert abs(rho_t[0, 1]) == pytest.approx(
                0.5 * np.exp(-TWO_PI * gamma_phi * t), rel=1e-8)


class TestEvolve:
    def test_initial_time_returns_rho0(self):
        sys = two_level(rabi=10e6, decay=50e6)
        rho0 = DensityState.from_populations([0.7, 0.3])
        tr = evolve(sys, rho0, np.array([0.0]))
        assert np.allclose(tr.populations[0], [0.7, 0.3])

    def test_closed_rabi_oscillation(self):
        rabi = 20e6
        sys = two_level(rabi=rabi)
        ts = np.linspace(0, 100e-9, 41)
        tr = evolve(sys, DensityState.from_populations([1, 0]), ts)
        assert np.allclose(tr.populations[:, 1], np.sin(np.pi * rabi * ts) ** 2,
                           atol=1e-7)

    def test_detuned_rabi_generalized_frequency(self):
        rabi, det = 12e6, 9e6
        gen = np.hypot(rabi, det)
        sys = two_level(rabi=rabi, detuning=det)
        ts = np.linspace(0, 200e-9, 81)
        tr = evolve(sys, DensityState.from_populations([1, 0]), ts)
        expected = (rabi / gen) ** 2 * np.sin(np.pi * gen * ts) ** 2
        assert np.allclose(tr.populations[:, 1], expected, atol=1e-7)

    def test_matrix_exponential_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            sys = random_system(rng, n)
            rho0 = random_density(rng, n)
            lv = build_liouvillian(sys)
            ts = np.linspace(0, 40e-9, 5)
            tr = evolve(sys, rho0, ts)
            for k, t in enumerate(ts):
                rho_ref = (expm(lv * t) @ rho0.rho.reshape(-1)).reshape(n, n)
                assert np.max(np.abs(tr.populations[k] -
                                     np.real(np.diag(rho_ref)))) < 1e-6

    def test_invariants_along_trajectories(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            sys = random_system(rng, n)
            rho0 = random_density(rng, n)
            ts = np.linspace(0, 50e-9, 9)
            lv = build_liouvillian(sys)
            for t in ts[1:]:
                rho = (expm(lv * t) @ rho0.rho.reshape(-1)).reshape(n, n)
                assert abs(np.trace(rho).real - 1) < 1e-8
                assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
                assert np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) > -1e-9

    def test_monotone_times_required(self):
        sys = two_level(decay=1e6)
        with pytest.raises(InvalidParameterError):
            evolve(sys, DensityState.from_populations([1, 0]),
                   np.array([0.0, 2e-9, 1e-9]))

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
        tr = evolve(sys, DensityState.from_populations(p0), ts)
        ref = rate_equation_populations(sys, p0, ts)
        assert np.max(np.abs(tr.populations - ref)) < 0.01


    def test_negative_duration_rejected(self):
        sys = two_level(decay=1e6)
        with pytest.raises(InvalidParameterError):
            final_state(sys, DensityState.from_populations([1, 0]), -1e-9)


class TestPropagate:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
           horizon=st.floats(1e-9, 1e-6))
    def test_matches_expm_and_keeps_trace_and_hermiticity(self, seed, n, horizon):
        rng = np.random.default_rng(seed)
        lv = build_liouvillian(random_system(rng, n))
        y0 = random_density(rng, n).rho.reshape(-1)
        ts = np.linspace(0.0, horizon, 6)
        ys = propagate(lv, y0, ts)
        ref = np.array([expm(lv * t) @ y0 for t in ts])
        assert np.max(np.abs(ys - ref)) <= 1e-12 * np.max(np.abs(ref))
        rhos = ys.reshape(-1, n, n)
        assert np.max(np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)) < 1e-12
        assert np.max(np.abs(rhos - np.conj(np.transpose(rhos, (0, 2, 1))))) < 1e-12

    def test_exceptional_point_falls_back_to_expm(self, monkeypatch):
        # drive and dephasing tuned so that two Liouvillian eigenvectors
        # nearly coalesce: cond(V) ~ 1e8
        sys = LevelSystem((Level("a", 0.0), Level("b", OPT)),
                          drives=(Drive("a", "b", 1e6),),
                          dephasings=(Dephasing("a", "b", 2e6),))
        lv = build_liouvillian(sys)
        assert np.linalg.cond(np.linalg.eig(lv)[1]) > engine._EIGENBASIS_CONDITION_LIMIT
        calls = []

        def counting_expm(a):
            calls.append(a)
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
        y0 = DensityState.pure(2, 0).rho.reshape(-1)
        ts = np.linspace(0.0, 1e-6, 5)
        ys = propagate(lv, y0, ts)
        assert len(calls) == len(ts)
        ref = np.array([expm(lv * t) @ y0 for t in ts])
        assert np.max(np.abs(ys - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSteadyState:
    def test_pure_ground_without_drive(self):
        sys = LevelSystem((Level("g", 0.0), Level("e", OPT)),
                          decays=(Decay("e", "g", 50e6),))
        rho = steady_state(sys)
        assert np.allclose(rho.populations(), [1.0, 0.0], atol=1e-10)

    def test_two_level_saturation_formula(self):
        rabi, det, gamma = 30e6, 5e6, 93.6e6
        sys = two_level(rabi=rabi, detuning=det, decay=gamma)
        rho = steady_state(sys)
        om, de, ga = TWO_PI * rabi, TWO_PI * det, TWO_PI * gamma
        expected = 0.25 * om ** 2 / (de ** 2 + om ** 2 / 2 + ga ** 2 / 4)
        assert rho.populations()[1] == pytest.approx(expected, rel=1e-9)

    def test_matches_long_time_integration(self):
        sys = LevelSystem(
            (Level("g1", 0.0), Level("g2", 6.8e9), Level("e", OPT)),
            drives=(Drive("g1", "e", 20e6, 0.0), Drive("g2", "e", 15e6, 2e6)),
            decays=(Decay("e", "g1", 40e6), Decay("e", "g2", 40e6)),
            dephasings=(Dephasing("g1", "g2", 1e6),))
        rho_ss = steady_state(sys)
        slowest = 1.0 / (TWO_PI * 1e6)
        rho_long = final_state(sys, DensityState.from_populations([0.2, 0.8, 0]),
                               50.0 * slowest)
        assert np.max(np.abs(rho_ss.rho - rho_long.rho)) < 1e-6

    def test_initial_state_independence(self):
        rng = np.random.default_rng(3)
        sys = LevelSystem(
            (Level("g1", 0.0), Level("g2", 6.8e9), Level("e", OPT)),
            drives=(Drive("g1", "e", 25e6, 1e6), Drive("g2", "e", 10e6, -3e6)),
            decays=(Decay("e", "g1", 50e6), Decay("e", "g2", 50e6)),
            dephasings=(Dephasing("g1", "g2", 2e6),))
        rho_a = final_state(sys, random_density(rng, 3), 3e-5)
        rho_b = final_state(sys, random_density(rng, 3), 3e-5)
        assert np.max(np.abs(rho_a.rho - rho_b.rho)) < 1e-7

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
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
           count=st.integers(1, 8))
    def test_stack_matches_per_system_null_vectors(self, seed, n, count):
        rng = np.random.default_rng(seed)
        base = random_system(rng, n)
        systems = [base] + [scan_variant(rng, base) for _ in range(count - 1)]
        rhos = steady_states(systems)
        assert rhos.shape == (count, n, n)
        for sys, rho in zip(systems, rhos):
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
        systems = [random_system(rng, 3) for _ in range(4)]
        rhos = steady_states(systems)
        for sys, rho in zip(systems, rhos):
            assert np.array_equal(steady_state(sys).rho, rho)
            assert np.array_equal(build_liouvillian(sys), kron_liouvillian(sys))

    def test_degenerate_system_inside_a_stack(self):
        rng = np.random.default_rng(5)
        systems = [random_system(rng, 4), disconnected_four_level(),
                   random_system(rng, 4)]
        with pytest.raises(SteadyStateError,
                           match="^steady state is not unique: null space dimension 4$"):
            steady_states(systems)

    def test_first_failing_system_raises(self):
        rng = np.random.default_rng(6)
        static = LevelSystem(tuple(Level(f"l{i}", i * 1e9) for i in range(4)))
        with pytest.raises(SteadyStateError, match="^zero Liouvillian"):
            steady_states([random_system(rng, 4), static, disconnected_four_level()])
        with pytest.raises(SteadyStateError, match="^steady state is not unique"):
            steady_states([random_system(rng, 4), disconnected_four_level(), static])

    @pytest.mark.parametrize("gamma", [1e6, 1.0, 0.1, 1e-2, 1e-3])
    def test_two_level_oracle_down_to_slow_decay(self, gamma):
        # cond(L) grows as drive over decay, to 2e11 at 1 mHz, but the steady
        # state stays unique
        rho = steady_state(two_level(rabi=100e6, detuning=3e6, decay=gamma))
        assert rho.populations()[1] == pytest.approx(
            _two_level_excited_population(100e6, 3e6, gamma), rel=1e-12)

    def test_weakly_coupled_ground_states_are_unique(self):
        # a 1 mHz ground exchange both ways joins the two decay systems
        base = disconnected_four_level()
        sys = LevelSystem(base.levels, decays=base.decays + (
            Decay("g1", "g2", 1e-3), Decay("g2", "g1", 1e-3)))
        rho = steady_state(sys)
        assert np.max(np.abs(rho.rho - np.diag([0.5, 0.0, 0.5, 0.0]))) <= 1e-12

    def test_mixed_dimensions_and_empty_stack_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(InvalidParameterError):
            steady_states([random_system(rng, 3), random_system(rng, 4)])
        with pytest.raises(InvalidParameterError):
            steady_states([])

    def test_liouvillian_assembled_once_per_system(self, monkeypatch):
        sys = two_level(rabi=20e6, decay=40e6)
        calls = []
        hamiltonian = sys.hamiltonian

        def counting_hamiltonian():
            calls.append(1)
            return hamiltonian()

        monkeypatch.setattr(sys, "hamiltonian", counting_hamiltonian)
        rho0 = DensityState.from_populations([1, 0])
        ts = np.linspace(0.0, 1e-7, 5)
        evolve(sys, rho0, ts)
        engine.evolve_with_final(sys, rho0, ts)
        final_state(sys, rho0, 1e-7)
        steady_state(sys)
        steady_states([sys, two_level(rabi=5e6, decay=40e6)])
        assert len(calls) == 1

    def test_cached_liouvillian_is_read_only(self):
        sys = two_level(rabi=20e6, decay=40e6)
        final_state(sys, DensityState.from_populations([1, 0]), 1e-7)
        cached = sys._liouvillian
        assert np.array_equal(cached, build_liouvillian(sys))
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0


class TestRotatingFrame:
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
        with pytest.raises(RotatingFrameError):
            LevelSystem(
                (Level("a", 0.0), Level("b", 1e9), Level("c", 3e9)),
                drives=(Drive("a", "b", 1e6, 0.0), Drive("b", "c", 1e6, 0.0),
                        Drive("a", "c", 1e6, 5e6)))

    def test_consistent_loop_accepted(self):
        LevelSystem(
            (Level("a", 0.0), Level("b", 1e9), Level("c", 3e9)),
            drives=(Drive("a", "b", 1e6, 2e6), Drive("b", "c", 1e6, 3e6),
                    Drive("a", "c", 1e6, 5e6)))


class TestValidation:
    def test_density_state_invariants(self):
        with pytest.raises(InvalidParameterError):
            DensityState(np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))
        with pytest.raises(InvalidParameterError):
            DensityState(np.diag([0.7, 0.7]).astype(complex))
        with pytest.raises(InvalidParameterError):
            DensityState(np.diag([1.5, -0.5]).astype(complex))

    def test_system_validation(self):
        with pytest.raises(InvalidParameterError):
            LevelSystem((Level("a", 0.0), Level("a", 1.0)))
        with pytest.raises(InvalidParameterError):
            LevelSystem((Level("a", 0.0),), drives=(Drive("a", "a", 1e6),))
        with pytest.raises(InvalidParameterError):
            LevelSystem((Level("a", 0.0), Level("b", 1e9)),
                        decays=(Decay("a", "b", -1.0),))
        with pytest.raises(InvalidParameterError):
            LevelSystem((Level("a", 0.0), Level("b", 1e9)),
                        decays=(Decay("a", "c", 1.0),))

    def test_trace_type_length_check(self):
        with pytest.raises(InvalidParameterError):
            Trace(np.array([0.0, 1.0]), np.array([1.0]), np.zeros((2, 2)))
